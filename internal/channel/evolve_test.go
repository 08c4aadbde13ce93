package channel

import (
	"math"
	"math/rand"
	"testing"
)

func TestEvolverStationaryStatistics(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := mustScenario(DefaultConfig(2), r)
	ref := s.HF.Gain()
	ev := mustEvolver(r, 0.9, s)
	var mean float64
	const steps = 2000
	for i := 0; i < steps; i++ {
		ev.Step()
		mean += s.HF.Gain()
	}
	mean /= steps
	// Long-run mean power within a factor of a few of the stationary
	// value (Rayleigh fading spread around it).
	if mean < ref/5 || mean > ref*5 {
		t.Fatalf("mean gain %v vs stationary %v", mean, ref)
	}
}

func TestEvolverLeakageTapFrozen(t *testing.T) {
	// The circulator leakage (h_env tap 0) is AP-internal and must not
	// fade.
	r := rand.New(rand.NewSource(3))
	s := mustScenario(DefaultConfig(1), r)
	leak := s.HEnv[0]
	ev := mustEvolver(r, 0.5, s)
	for i := 0; i < 50; i++ {
		ev.Step()
	}
	if s.HEnv[0] != leak {
		t.Fatal("leakage tap faded")
	}
	// Environmental taps do evolve.
	evolved := false
	for i := 1; i < len(s.HEnv); i++ {
		if s.HEnv[i] != 0 {
			evolved = true
		}
	}
	if !evolved {
		t.Fatal("environment taps vanished")
	}
}

func TestEvolverRhoValidation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	s := mustScenario(DefaultConfig(1), r)
	if _, err := NewEvolver(r, 1.5, s); err == nil {
		t.Fatal("expected error for rho out of range")
	}
}

func TestMobilityRhoMapping(t *testing.T) {
	// Faster motion → lower correlation; static → exactly 1.
	if r := MobilityRho(0, DefaultCarrierHz, 5e-3); r != 1 {
		t.Fatalf("static mobility rho = %v, want 1", r)
	}
	walk := MobilityRho(1.4, DefaultCarrierHz, 5e-3)
	jog := MobilityRho(3, DefaultCarrierHz, 5e-3)
	if !(walk < 1 && jog < walk && jog > 0) {
		t.Fatalf("mobility rho ordering wrong: walk %v, jog %v", walk, jog)
	}
	// Spot-check the composition: fd = v·fc/c, τ = 0.423/fd, ρ = exp(−Δt/τ).
	fd := DopplerHz(1.4, DefaultCarrierHz)
	want := math.Exp(-5e-3 * fd / 0.423)
	if math.Abs(walk-want) > 1e-12 {
		t.Fatalf("walk rho %v, want %v", walk, want)
	}
}

func TestEvolverSetRho(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := mustScenario(DefaultConfig(1), r)
	ev := mustEvolver(r, 0.9, s)
	if err := ev.SetRho(1.5); err == nil {
		t.Fatal("expected error for rho out of range")
	}
	if ev.Rho() != 0.9 {
		t.Fatalf("failed SetRho mutated rho to %v", ev.Rho())
	}
	if err := ev.SetRho(0.5); err != nil {
		t.Fatal(err)
	}
	if ev.Rho() != 0.5 {
		t.Fatalf("rho = %v after SetRho(0.5)", ev.Rho())
	}
	// Two evolvers applying the same rho switch at the same step stay
	// bit-identical; the stationary powers are untouched by the switch.
	r1, r2 := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	s1, s2 := mustScenario(DefaultConfig(2), r1), mustScenario(DefaultConfig(2), r2)
	e1, e2 := mustEvolver(r1, 0.95, s1), mustEvolver(r2, 0.95, s2)
	for i := 0; i < 40; i++ {
		if i == 20 {
			if err := e1.SetRho(0.7); err != nil {
				t.Fatal(err)
			}
			if err := e2.SetRho(0.7); err != nil {
				t.Fatal(err)
			}
		}
		e1.Step()
		e2.Step()
		for k := range s1.HB {
			if s1.HB[k] != s2.HB[k] {
				t.Fatalf("step %d: tap %d diverged under identical rho switches", i, k)
			}
		}
	}
}

func TestCoherenceRhoMonotone(t *testing.T) {
	// Longer coherence → higher correlation.
	fast := CoherenceRho(0.01, 0.02)
	slow := CoherenceRho(0.01, 1.0)
	if !(slow > fast && slow < 1 && fast > 0) {
		t.Fatalf("rho ordering wrong: %v vs %v", fast, slow)
	}
	if math.Abs(CoherenceRho(0.693, 1)-0.5) > 0.01 {
		t.Fatalf("rho(ln2) = %v, want 0.5", CoherenceRho(0.693, 1))
	}
}
