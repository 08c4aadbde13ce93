package energy

import (
	"errors"
	"math"
	"testing"

	"backfi/internal/fec"
	"backfi/internal/tag"
)

func TestTankConfigValidate(t *testing.T) {
	base := DefaultTankConfig(1)
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*TankConfig)
	}{
		{"zero capacity", func(c *TankConfig) { c.CapacityJ = 0 }},
		{"nan capacity", func(c *TankConfig) { c.CapacityJ = math.NaN() }},
		{"inf harvest", func(c *TankConfig) { c.HarvestW = math.Inf(1) }},
		{"wake above capacity", func(c *TankConfig) { c.WakeJ = c.CapacityJ * 2 }},
		{"sleep at wake", func(c *TankConfig) { c.SleepJ = c.WakeJ }},
		{"negative sleep", func(c *TankConfig) { c.SleepJ = -1e-9 }},
		{"initial above capacity", func(c *TankConfig) { c.InitialJ = c.CapacityJ * 2 }},
		{"zero slot", func(c *TankConfig) { c.SlotSeconds = 0 }},
		{"severity above 1", func(c *TankConfig) { c.Severity = 1.5 }},
		{"scarce frac 1", func(c *TankConfig) { c.ScarceFrac = 1 }},
		{"negative leak", func(c *TankConfig) { c.LeakW = -1e-9 }},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
		if _, err := NewTank(c); err == nil {
			t.Errorf("%s: NewTank accepted bad config", tc.name)
		}
	}
}

// A tank is a pure function of (seed, slot sequence, drain sequence):
// two tanks from the same config fed the same calls agree exactly,
// and a different seed diverges the harvest trace.
func TestTankDeterminism(t *testing.T) {
	cfg := DefaultTankConfig(7)
	cfg.Severity = 0.6
	a, err := NewTank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewTank(cfg)
	for i := 0; i < 500; i++ {
		sa, sb := a.StepSlot(), b.StepSlot()
		if sa != sb || a.Snapshot().ChargeJ != b.Snapshot().ChargeJ {
			t.Fatalf("slot %d: diverged (%v %.3g J vs %v %.3g J)", i, sa, a.Snapshot().ChargeJ, sb, b.Snapshot().ChargeJ)
		}
		if sa == TankLive && i%3 == 0 {
			a.Drain(1.2e-7)
			b.Drain(1.2e-7)
		}
	}
	// Empty tanks, so the charge trajectory exposes the harvest trace
	// instead of saturating at capacity.
	empty := cfg
	empty.InitialJ = 0
	other := empty
	other.Seed = 8
	c, _ := NewTank(empty)
	d, _ := NewTank(other)
	diverged := false
	for i := 0; i < 500; i++ {
		c.StepSlot()
		d.StepSlot()
		if c.Snapshot().ChargeJ != d.Snapshot().ChargeJ {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical harvest traces")
	}
}

// The hysteresis loop: a drained tank goes DARK, banks back up
// through WAKING (one boot slot), and answers again as LIVE; the
// sleep threshold sits strictly below wake so it cannot flap.
func TestTankHysteresisCycle(t *testing.T) {
	cfg := DefaultTankConfig(3)
	cfg.Severity = 0 // steady harvest so the recharge time is exact
	tk, err := NewTank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tk.State() != TankLive {
		t.Fatalf("full tank starts %v, want live", tk.State())
	}
	// Burn it down past the sleep threshold.
	for tk.State() == TankLive {
		tk.Drain(1e-6)
	}
	if tk.State() != TankDark {
		t.Fatalf("drained tank is %v, want dark", tk.State())
	}
	// Bank back up: must pass through exactly one WAKING slot.
	sawWaking := false
	for i := 0; i < 10000 && tk.State() != TankLive; i++ {
		s := tk.StepSlot()
		if s == TankWaking {
			if sawWaking {
				t.Fatal("spent more than one slot waking")
			}
			sawWaking = true
		}
	}
	if tk.State() != TankLive {
		t.Fatal("tank never woke under steady harvest")
	}
	if !sawWaking {
		t.Fatal("tank skipped the WAKING boot slot")
	}
	if tk.Snapshot().SpentJ <= 0 {
		t.Fatal("drain accounting lost the spent energy")
	}
}

// Higher harvest severity must starve the tank monotonically: the
// fraction of LIVE slots over a long trace never rises with severity.
func TestTankSeverityStarves(t *testing.T) {
	liveFrac := func(sev float64) float64 {
		cfg := DefaultTankConfig(11)
		cfg.Severity = sev
		tk, err := NewTank(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := 0
		const slots = 4000
		for i := 0; i < slots; i++ {
			if tk.StepSlot() == TankLive {
				live++
				tk.Drain(2.5e-7) // steady decode load while awake
			}
		}
		return float64(live) / slots
	}
	lo, mid, hi := liveFrac(0), liveFrac(0.5), liveFrac(1)
	if !(lo >= mid && mid >= hi) {
		t.Fatalf("live fraction not monotone in severity: %0.3f, %0.3f, %0.3f", lo, mid, hi)
	}
	if lo < 0.9 {
		t.Fatalf("severity 0 should keep a lightly-loaded tag mostly live, got %0.3f", lo)
	}
	if hi > 0.5 {
		t.Fatalf("severity 1 should starve the tag, got live fraction %0.3f", hi)
	}
}

func TestSustainableDutyCycleNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := SustainableDutyCycle(tag.BPSK, fec.Rate12, 1e6, w)
		if !errors.Is(err, ErrNonFiniteHarvest) {
			t.Errorf("harvest %v: got %v, want ErrNonFiniteHarvest", w, err)
		}
	}
	if _, err := SustainableDutyCycle(tag.BPSK, fec.Rate12, 1e6, HarvestedPowerW); err != nil {
		t.Errorf("finite harvest rejected: %v", err)
	}
}

// A tank restored from a snapshot continues the original's trace
// exactly, and Restore refuses values no tank could hold.
func TestTankSnapshotRestore(t *testing.T) {
	cfg := DefaultTankConfig(3)
	cfg.Severity = 0.8
	a, err := NewTank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		a.StepSlot()
		a.Drain(1e-7)
	}
	b, _ := NewTank(cfg)
	if err := b.Restore(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		sa, sb := a.StepSlot(), b.StepSlot()
		a.Drain(5e-8)
		b.Drain(5e-8)
		if sa != sb || a.Snapshot() != b.Snapshot() {
			t.Fatalf("slot %d: restored tank diverged: %+v vs %+v", i, b.Snapshot(), a.Snapshot())
		}
	}
	for name, s := range map[string]TankSnapshot{
		"nan charge":     {ChargeJ: math.NaN(), State: TankLive},
		"over capacity":  {ChargeJ: 2 * cfg.CapacityJ, State: TankLive},
		"negative slot":  {Slot: -1},
		"inf spent":      {SpentJ: math.Inf(1)},
		"negative spent": {SpentJ: -1},
		"unknown state":  {State: TankLive + 1},
	} {
		before := b.Snapshot()
		if err := b.Restore(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if b.Snapshot() != before {
			t.Errorf("%s: rejected restore changed the tank", name)
		}
	}
}
