package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/dsp"
	"backfi/internal/rng"
)

func TestFSPLKnownValue(t *testing.T) {
	// Free space at 1 m, 2.437 GHz ≈ 40.2 dB.
	got := FSPLdB(1, 2.437e9)
	if math.Abs(got-40.2) > 0.1 {
		t.Fatalf("FSPL = %v, want ≈40.2", got)
	}
	// Doubling distance adds 6 dB.
	if d := FSPLdB(2, 2.437e9) - got; math.Abs(d-6.02) > 0.01 {
		t.Fatalf("distance doubling added %v dB", d)
	}
}

func TestFSPLPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FSPLdB(0, 1e9)
}

func TestLogDistanceReducesToFSPL(t *testing.T) {
	for _, d := range []float64{0.5, 1, 3, 10} {
		fs := FSPLdB(d, 2.4e9)
		ld := LogDistancePLdB(d, 2.4e9, 2, 1)
		if math.Abs(fs-ld) > 1e-9 {
			t.Fatalf("d=%v: log-distance %v vs FSPL %v", d, ld, fs)
		}
	}
}

func TestLogDistanceExponent(t *testing.T) {
	// η=4: 10× distance adds 40 dB.
	d1 := LogDistancePLdB(1, 2.4e9, 4, 1)
	d10 := LogDistancePLdB(10, 2.4e9, 4, 1)
	if math.Abs(d10-d1-40) > 1e-9 {
		t.Fatalf("exponent-4 delta = %v", d10-d1)
	}
}

func TestThermalNoiseKnownValue(t *testing.T) {
	// kTB over 20 MHz ≈ −101 dBm; +6 dB NF ≈ −95 dBm.
	got := dsp.DBm(ThermalNoiseW(20e6, 6))
	if math.Abs(got-(-95)) > 0.3 {
		t.Fatalf("noise = %v dBm, want ≈ −95", got)
	}
}

func TestTapsGainAndScale(t *testing.T) {
	taps := Taps{complex(1, 0), complex(0, 0.5)}
	if g := taps.Gain(); math.Abs(g-1.25) > 1e-12 {
		t.Fatalf("Gain = %v", g)
	}
	scaled := taps.Scale(-20)
	if math.Abs(scaled.GainDB()-(-20)) > 1e-9 {
		t.Fatalf("scaled gain %v dB", scaled.GainDB())
	}
	// Relative tap structure preserved.
	r0 := scaled[1] / scaled[0]
	if math.Abs(real(r0)-0) > 1e-12 || math.Abs(imag(r0)-0.5) > 1e-12 {
		t.Fatalf("tap structure changed: %v", r0)
	}
}

func TestRayleighTapsNormalizedAndDecaying(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	taps := RayleighTaps(r, 8, 0.5)
	if math.Abs(taps.Gain()-1) > 1e-9 {
		t.Fatalf("gain %v, want 1", taps.Gain())
	}
	// Average over many draws: later taps weaker.
	var p0, p7 float64
	for i := 0; i < 400; i++ {
		tp := RayleighTaps(r, 8, 0.5)
		p0 += real(tp[0])*real(tp[0]) + imag(tp[0])*imag(tp[0])
		p7 += real(tp[7])*real(tp[7]) + imag(tp[7])*imag(tp[7])
	}
	if p0 < 30*p7 { // expect ≈128× on average
		t.Fatalf("PDP not decaying: first %v last %v", p0, p7)
	}
}

func TestRicianKFactorConcentratesFirstTap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var first float64
	const trials = 300
	for i := 0; i < trials; i++ {
		tp := RicianTaps(r, 6, 10, 0.5)
		first += real(tp[0])*real(tp[0]) + imag(tp[0])*imag(tp[0])
	}
	first /= trials
	// K=10 dB: LOS fraction ≈ 0.91 of total (plus tap-0 scatter share).
	if first < 0.85 {
		t.Fatalf("first-tap power fraction %v, want > 0.85", first)
	}
}

func TestDelayTaps(t *testing.T) {
	taps := Taps{1}.DelayTaps(3)
	if len(taps) != 4 || taps[3] != 1 || taps[0] != 0 {
		t.Fatalf("DelayTaps = %v", taps)
	}
}

func TestTapsApplyMatchesConvolution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := make([]complex128, 50)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	taps := Taps{1, complex(0.2, -0.1)}
	y := taps.Apply(x)
	want := dsp.ConvolveSame(x, taps)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Apply differs at %d", i)
		}
	}
}

// TestAWGNPowerAndWhiteness checks the block Gaussian generator behind
// AWGN against theory: power, kurtosis 3, the two-sided tail P(|x|>k)
// = erfc(k/√2) for k = 1..4, no lag-1 or I/Q correlation, and no
// correlation between the streams of consecutive attempts
// (rng.Mix(seed, n) and n+1). Every statistic is held to |z| ≤ 4.
func TestAWGNPowerAndWhiteness(t *testing.T) {
	const n = 200000
	src := NewAWGN(rng.NewSource(4), 2.0) // σ = 1 per dimension
	x := src.Samples(n)
	if p := dsp.Power(x); math.Abs(p-2) > 0.05 {
		t.Fatalf("noise power %v, want 2", p)
	}
	checkZ := func(name string, got, want, se float64) {
		t.Helper()
		if z := (got - want) / se; math.Abs(z) > 4 {
			t.Errorf("%s = %.5g, want %.5g (z = %.1f)", name, got, want, z)
		}
	}
	vals := make([]float64, 0, 2*n)
	for _, v := range x {
		vals = append(vals, real(v), imag(v))
	}
	m := float64(len(vals))
	var m2, m4 float64
	for _, v := range vals {
		m2 += v * v
		m4 += v * v * v * v
	}
	m2, m4 = m2/m, m4/m
	checkZ("kurtosis", m4/(m2*m2), 3, math.Sqrt(24/m))
	for k := 1.0; k <= 4; k++ {
		hits := 0
		for _, v := range vals {
			if math.Abs(v) > k {
				hits++
			}
		}
		p := math.Erfc(k / math.Sqrt2)
		checkZ(fmt.Sprintf("P(|x|>%v)", k), float64(hits)/m, p, math.Sqrt(p*(1-p)/m))
	}
	// Lag-1 correlation should be near zero.
	c := dsp.AutoCorrelateLag(x, 1, len(x)-1)
	checkZ("lag-1 correlation", real(c)/dsp.Energy(x), 0, 1/math.Sqrt(2*n))
	var iq float64
	for _, v := range x {
		iq += real(v) * imag(v)
	}
	checkZ("I/Q correlation", iq/n, 0, 1/math.Sqrt(n))
	for attempt := range 8 {
		a := NewAWGN(rng.NewSource(rng.Mix(4, attempt)), 2).Samples(n / 8)
		b := NewAWGN(rng.NewSource(rng.Mix(4, attempt+1)), 2).Samples(n / 8)
		var ab complex128
		for i := range a {
			ab += a[i] * cmplx.Conj(b[i])
		}
		rho := ab / complex(math.Sqrt(dsp.Energy(a)*dsp.Energy(b)), 0)
		se := 1 / math.Sqrt(2*float64(len(a)))
		checkZ(fmt.Sprintf("attempts %d/%d correlation (re)", attempt, attempt+1), real(rho), 0, se)
		checkZ(fmt.Sprintf("attempts %d/%d correlation (im)", attempt, attempt+1), imag(rho), 0, se)
	}
}

// TestHardDecisionBERMatchesQFunction runs BPSK and QPSK hard decisions
// over the block AWGN and compares the bit error rate with the
// closed-form Q-function at three Es/N0 points, within binomial 3σ:
// BPSK Q(√(2Es/N0)), QPSK (Gray) Q(√(Es/N0)) per bit.
func TestHardDecisionBERMatchesQFunction(t *testing.T) {
	q := func(x float64) float64 { return 0.5 * math.Erfc(x/math.Sqrt2) }
	const symbols = 200000
	for _, esn0dB := range []float64{0, 4, 7} {
		esn0 := dsp.UnDB(esn0dB)
		noise := NewAWGN(rng.NewSource(rng.Mix(11, int(esn0dB))), 1/esn0).Samples(symbols) // Es = 1
		bpsk, qpsk := 0, 0
		for i, v := range noise {
			// BPSK sends +1 on even symbols and −1 on odd ones; QPSK
			// sends (±1 ± j)/√2 by the symbol index's low two bits.
			s := 1.0
			if i&1 == 1 {
				s = -1
			}
			if (real(v)+s)*s < 0 {
				bpsk++
			}
			si, sq := 1.0, 1.0
			if i&1 == 1 {
				si = -1
			}
			if i&2 == 2 {
				sq = -1
			}
			y := v + complex(si/math.Sqrt2, sq/math.Sqrt2)
			if real(y)*si < 0 {
				qpsk++
			}
			if imag(y)*sq < 0 {
				qpsk++
			}
		}
		for _, c := range []struct {
			name       string
			errs, bits int
			p          float64
		}{
			{"BPSK", bpsk, symbols, q(math.Sqrt(2 * esn0))},
			{"QPSK", qpsk, 2 * symbols, q(math.Sqrt(esn0))},
		} {
			want := float64(c.bits) * c.p
			if sd := math.Sqrt(want * (1 - c.p)); math.Abs(float64(c.errs)-want) > 3*sd {
				t.Errorf("%s at Es/N0 %v dB: %d bit errors in %d, want %.0f ± %.0f", c.name, esn0dB, c.errs, c.bits, want, 3*sd)
			}
		}
	}
}

func TestAWGNAddPreservesSignal(t *testing.T) {
	src := NewAWGN(rng.NewSource(5), 0)
	x := []complex128{1, complex(0, 2)}
	y := src.Add(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("zero-power noise changed the signal")
		}
	}
}

func TestTxDistortionEVMLevel(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	d := NewTxDistortion(rng.NewSource(6), -20)
	x := make([]complex128, 100000)
	for i := range x {
		x[i] = dsp.Phasor(r.Float64() * 2 * math.Pi)
	}
	y := d.Apply(x)
	errP := dsp.Power(dsp.Sub(y, x))
	if got := dsp.DB(errP / dsp.Power(x)); math.Abs(got-(-20)) > 0.3 {
		t.Fatalf("distortion EVM %v dB, want −20", got)
	}
}

func TestTxDistortionDisabled(t *testing.T) {
	d := NewTxDistortion(rng.NewSource(7), math.Inf(-1))
	x := []complex128{1, 2, 3}
	y := d.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("disabled distortion changed the signal")
		}
	}
}

func TestScenarioStructure(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	s := mustScenario(DefaultConfig(2), r)
	if s.HEnv.Gain() == 0 || s.HF.Gain() == 0 || s.HB.Gain() == 0 {
		t.Fatal("channels should be non-zero")
	}
	// Self-interference is vastly stronger than the backscatter path.
	si := s.SelfInterferencePowerW()
	bs := s.BackscatterRxPowerW()
	if dsp.DB(si/bs) < 20 {
		t.Fatalf("self-interference only %v dB above backscatter", dsp.DB(si/bs))
	}
	// And the backscatter should still be above thermal noise at 2 m.
	if s.ExpectedSNRdB() < 5 {
		t.Fatalf("expected SNR %v dB at 2 m", s.ExpectedSNRdB())
	}
}

func TestScenarioSNRDecreasesWithDistance(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var prev float64 = math.Inf(1)
	for _, d := range []float64{0.5, 1, 2, 4, 7} {
		// Average a few realizations to smooth fading.
		var snr float64
		const reps = 20
		for i := 0; i < reps; i++ {
			snr += mustScenario(DefaultConfig(d), r).ExpectedSNRdB()
		}
		snr /= reps
		if snr >= prev {
			t.Fatalf("SNR %v at %v m not below %v", snr, d, prev)
		}
		prev = snr
	}
}

func TestScenarioRequiresDistance(t *testing.T) {
	if _, err := NewScenario(Config{}, rand.New(rand.NewSource(1)), rng.NewSource(1)); err == nil {
		t.Fatal("expected error for zero distance")
	}
}

func TestDownlinkGainTracksDistance(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	var g1, g8 float64
	for i := 0; i < 50; i++ {
		t1, _ := Downlink(r, 1, 2.5, 2.4e9, 4, 6, 20e6)
		t8, _ := Downlink(r, 8, 2.5, 2.4e9, 4, 6, 20e6)
		g1 += t1.Gain()
		g8 += t8.Gain()
	}
	// 8× distance at η=2.5 is ≈22.6 dB.
	if d := dsp.DB(g1 / g8); math.Abs(d-22.6) > 2 {
		t.Fatalf("distance delta %v dB, want ≈22.6", d)
	}
}

func TestPropagationDelaySamples(t *testing.T) {
	// 15 m at 20 MHz is exactly one sample.
	got := PropagationDelaySamples(SpeedOfLight/20e6, 20e6)
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("delay = %v samples", got)
	}
}

func TestTapsConvolveCascade(t *testing.T) {
	a := Taps{1, complex(0.5, 0)}
	b := Taps{complex(0, 1)}
	c := a.Convolve(b)
	if len(c) != 2 || c[0] != complex(0, 1) || c[1] != complex(0, 0.5) {
		t.Fatalf("cascade = %v", c)
	}
}

func TestFrequencyResponseSingleTapFlat(t *testing.T) {
	flat := Taps{complex(0.5, 0.2)}
	if s := flat.SelectivityDB(64); s > 1e-9 {
		t.Fatalf("single tap selectivity %v dB, want 0", s)
	}
	h := flat.FrequencyResponse(64)
	for _, v := range h {
		if v != flat[0] {
			t.Fatal("flat channel response should equal the tap")
		}
	}
}

func TestFrequencyResponseMultipathSelective(t *testing.T) {
	// Two near-equal taps create a deep null: the paper's reason that
	// a programmable attenuator + phase shifter cannot cancel a 20 MHz
	// excitation (Sec. 3.2).
	twoTap := Taps{1, complex(0.9, 0)}
	if s := twoTap.SelectivityDB(64); s < 20 {
		t.Fatalf("two-tap selectivity only %v dB", s)
	}
	r := rand.New(rand.NewSource(1))
	multi := RayleighTaps(r, 8, 0.5)
	if s := multi.SelectivityDB(64); s < 3 {
		t.Fatalf("multipath selectivity %v dB implausibly flat", s)
	}
}
