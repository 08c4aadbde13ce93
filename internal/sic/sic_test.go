package sic

import (
	"math"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

// trained is what the physics tests read of a canceller trained on a
// silent window: the capture it cancels, its report and its taps.
type trained struct {
	cancel          func(xTap, xIdeal, y []complex128) []complex128
	report          Report
	analog, digital []complex128
}

// trainFunc trains a canceller on the window [start, stop) of y.
type trainFunc func(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (trained, error)

// cancellers are the two implementations every physics test runs
// over: the dense full-capture reference and the pipeline's Reusable,
// cancelling the whole capture.
var cancellers = []struct {
	name  string
	train trainFunc
}{
	{"reference", func(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (trained, error) {
		c, err := Train(cfg, xTap, xIdeal, y, start, stop)
		if err != nil {
			return trained{}, err
		}
		return trained{cancel: c.Cancel, report: c.Report(), analog: c.analog, digital: c.digital}, nil
	}},
	{"reusable", func(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (trained, error) {
		c, err := NewReusable(cfg)
		if err != nil {
			return trained{}, err
		}
		if _, err := c.Retrain(nil, xTap, xIdeal, c.factorOf(xIdeal, start, stop), y, start, stop); err != nil {
			return trained{}, err
		}
		cancel := func(xTap, xIdeal, y []complex128) []complex128 {
			return c.CancelRange(nil, xTap, xIdeal, y, 0, len(y))
		}
		return trained{cancel: cancel, report: c.Report(), analog: c.analog, digital: c.digital}, nil
	}},
}

// forEachCanceller runs a physics test as one subtest per canceller.
func forEachCanceller(t *testing.T, test func(t *testing.T, train trainFunc)) {
	for _, cc := range cancellers {
		t.Run(cc.name, func(t *testing.T) { test(t, cc.train) })
	}
}

// testSignal builds a white, WiFi-power-scaled excitation.
func testSignal(r *rand.Rand, n int, powerW float64) []complex128 {
	x := make([]complex128, n)
	s := math.Sqrt(powerW / 2)
	for i := range x {
		x[i] = complex(r.NormFloat64()*s, r.NormFloat64()*s)
	}
	return x
}

func TestCancellationReachesNoiseFloorWithoutDistortion(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		r := rand.New(rand.NewSource(1))
		src := rng.NewSource(1)
		txW := dsp.UnDBm(20)
		x := testSignal(r, 4000, txW)
		henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
		noiseW := channel.ThermalNoiseW(20e6, 6)
		noise := channel.NewAWGN(src, noiseW)
		y := noise.Add(henv.Apply(x))

		c, err := train(DefaultConfig(), x, x, y, 0, 320)
		if err != nil {
			t.Fatal(err)
		}
		resid := c.cancel(x, x, y)
		residDBm := dsp.DBm(dsp.Power(resid[320:]))
		floorDBm := dsp.DBm(noiseW)
		// Ideal hardware: residual within 1 dB of thermal noise even though
		// self-interference was ~75 dB above it.
		if residDBm > floorDBm+1 {
			t.Fatalf("residual %v dBm, noise floor %v dBm", residDBm, floorDBm)
		}
		if rep := c.report; rep.CancellationDB < 60 {
			t.Fatalf("only %v dB cancellation", rep.CancellationDB)
		}
	})
}

func TestDigitalOnlyIsTxDistortionBounded(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		// Without the PA-output tap (digital-only cancellation from the
		// ideal samples), a −28 dB EVM transmitter leaves a residue near
		// (SI power − 28 dB): the canceller cannot subtract distortion it
		// has no record of. This is why full-duplex hardware taps the PA.
		r := rand.New(rand.NewSource(2))
		src := rng.NewSource(2)
		txW := dsp.UnDBm(20)
		x := testSignal(r, 4000, txW)
		dist := channel.NewTxDistortion(src, -28)
		xAir := dist.Apply(x)
		henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
		y := noise.Add(henv.Apply(xAir))

		cfg := Config{AnalogTaps: 0, DigitalTaps: 32, Lambda: 1e-12}
		c, err := train(cfg, x, x, y, 0, 320)
		if err != nil {
			t.Fatal(err)
		}
		resid := c.cancel(x, x, y)
		residDBm := dsp.DBm(dsp.Power(resid[320:]))
		siDBm := dsp.DBm(txW) - 20 // SI power at the receiver
		expected := siDBm - 28     // distortion floor through the same channel
		if math.Abs(residDBm-expected) > 3 {
			t.Fatalf("residual %v dBm, want ≈%v (distortion-bounded)", residDBm, expected)
		}
	})
}

func TestAnalogPATapRemovesTxDistortion(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		// With the analog stage referenced to the PA output (xTap = the
		// distorted air signal), transmit noise is cancelled along with the
		// linear self-interference, and the residue approaches the floor
		// set by analog quantization — tens of dB below the digital-only
		// case above (the [Bharadia'13] result BackFi builds on).
		r := rand.New(rand.NewSource(22))
		src := rng.NewSource(22)
		txW := dsp.UnDBm(20)
		x := testSignal(r, 4000, txW)
		dist := channel.NewTxDistortion(src, -28)
		xAir := dist.Apply(x)
		henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
		y := noise.Add(henv.Apply(xAir))

		c, err := train(DefaultConfig(), xAir, x, y, 0, 320)
		if err != nil {
			t.Fatal(err)
		}
		resid := c.cancel(xAir, x, y)
		residDBm := dsp.DBm(dsp.Power(resid[320:]))
		digitalOnlyFloor := dsp.DBm(txW) - 20 - 28
		if residDBm > digitalOnlyFloor-20 {
			t.Fatalf("PA-tapped residual %v dBm, want at least 20 dB below the digital-only floor %v dBm",
				residDBm, digitalOnlyFloor)
		}
	})
}

func TestBackscatterSurvivesCancellation(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		// Train during a silent window, then add a weak backscatter signal
		// outside it: cancellation must not remove it (paper Sec. 4.2).
		r := rand.New(rand.NewSource(3))
		src := rng.NewSource(3)
		txW := dsp.UnDBm(20)
		x := testSignal(r, 6000, txW)
		henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))

		// Backscatter: modulated copy through a weak round-trip channel,
		// active only after sample 2000.
		hfb := channel.RayleighTaps(r, 4, 0.5).Scale(-70)
		m := make([]complex128, len(x))
		for i := 2000; i < len(x); i++ {
			if (i/20)%2 == 0 {
				m[i] = 1
			} else {
				m[i] = -1
			}
		}
		zs := hfb.Apply(x)
		bs := make([]complex128, len(x))
		for i := range bs {
			bs[i] = zs[i] * m[i]
		}
		y := noise.Add(dsp.Add(henv.Apply(x), bs))

		c, err := train(DefaultConfig(), x, x, y, 0, 1500)
		if err != nil {
			t.Fatal(err)
		}
		resid := c.cancel(x, x, y)
		// Residual power where backscatter is active should carry the
		// backscatter power (−50 dBm) rather than being nulled.
		bsPower := dsp.Power(bs[2000:])
		residPower := dsp.Power(resid[2000:])
		if residPower < bsPower*0.5 {
			t.Fatalf("backscatter was cancelled: resid %v vs backscatter %v", dsp.DBm(residPower), dsp.DBm(bsPower))
		}
		// Correlation of residual with the true backscatter should be high.
		corr := dsp.Dot(resid[2000:], bs[2000:])
		rho := real(corr) / math.Sqrt(dsp.Energy(resid[2000:])*dsp.Energy(bs[2000:]))
		if rho < 0.8 {
			t.Fatalf("residual decorrelated from backscatter: ρ=%v", rho)
		}
	})
}

func TestTrainingWindowWithBackscatterDegrades(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		// Ablation of the protocol's silent period: if the tag modulates
		// during training, the estimate degrades and the canceller eats
		// part of the backscatter. This is why BackFi's link layer forces
		// the 16 µs silence.
		r := rand.New(rand.NewSource(4))
		src := rng.NewSource(4)
		txW := dsp.UnDBm(20)
		x := testSignal(r, 6000, txW)
		henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
		hfb := channel.RayleighTaps(r, 4, 0.5).Scale(-55)
		// Worst case for a naive (non-BackFi) design: the tag reflects with
		// a constant phase while the reader trains. The reflection is then
		// indistinguishable from an environmental path and is absorbed into
		// the h_env estimate — and subtracted from the whole packet.
		m := make([]complex128, len(x))
		for i := range m {
			m[i] = 1
		}
		zs := hfb.Apply(x)
		bs := make([]complex128, len(x))
		for i := range bs {
			bs[i] = zs[i] * m[i]
		}
		y := noise.Add(dsp.Add(henv.Apply(x), bs))

		c, err := train(DefaultConfig(), x, x, y, 0, 1500) // tag active during training!
		if err != nil {
			t.Fatal(err)
		}
		resid := c.cancel(x, x, y)
		// The residual should retain almost none of the backscatter energy.
		residP := dsp.Power(resid[2000:])
		bsP := dsp.Power(bs[2000:])
		if residP > bsP/10 {
			t.Fatalf("backscatter not absorbed when training over it: resid %v dBm vs backscatter %v dBm",
				dsp.DBm(residP), dsp.DBm(bsP))
		}
	})
}

func TestAnalogStagePreventsSaturation(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		// The analog stage alone must knock the SI down by tens of dB.
		r := rand.New(rand.NewSource(5))
		src := rng.NewSource(5)
		x := testSignal(r, 3000, dsp.UnDBm(20))
		henv := channel.RayleighTaps(r, 8, 0.5).Scale(-18)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
		y := noise.Add(henv.Apply(x))
		c, err := train(DefaultConfig(), x, x, y, 0, 320)
		if err != nil {
			t.Fatal(err)
		}
		rep := c.report
		analogGain := rep.BeforeDBm - rep.AfterAnalogDBm
		if analogGain < 25 {
			t.Fatalf("analog stage only %v dB", analogGain)
		}
		// Digital must improve on analog.
		if rep.AfterDBm >= rep.AfterAnalogDBm {
			t.Fatalf("digital stage did not improve: %v vs %v", rep.AfterDBm, rep.AfterAnalogDBm)
		}
	})
}

func TestDigitalOnlyConfiguration(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		r := rand.New(rand.NewSource(6))
		src := rng.NewSource(6)
		x := testSignal(r, 2000, dsp.UnDBm(10))
		henv := channel.Taps{complex(0.1, -0.05), complex(0.02, 0.01)}
		noise := channel.NewAWGN(src, 1e-12)
		y := noise.Add(henv.Apply(x))
		cfg := Config{AnalogTaps: 0, DigitalTaps: 8, Lambda: 1e-15}
		c, err := train(cfg, x, x, y, 0, 500)
		if err != nil {
			t.Fatal(err)
		}
		if rep := c.report; rep.CancellationDB < 50 {
			t.Fatalf("digital-only cancellation %v dB", rep.CancellationDB)
		}
	})
}

func TestTrainErrors(t *testing.T) {
	x := make([]complex128, 100)
	if _, err := Train(Config{DigitalTaps: 0}, x, x, x, 0, 50); err == nil {
		t.Fatal("expected error for no digital taps")
	}
	if _, err := Train(Config{DigitalTaps: 64}, x, x, x, 0, 50); err == nil {
		t.Fatal("expected error for short window")
	}
}

func TestEstimatedChannelMatchesTruth(t *testing.T) {
	forEachCanceller(t, func(t *testing.T, train trainFunc) {
		r := rand.New(rand.NewSource(7))
		src := rng.NewSource(7)
		x := testSignal(r, 3000, dsp.UnDBm(20))
		henv := channel.RayleighTaps(r, 6, 0.5).Scale(-20)
		noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
		y := noise.Add(henv.Apply(x))
		c, err := train(DefaultConfig(), x, x, y, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		est := estimatedChannel(c.analog, c.digital)
		var errE, refE float64
		for i, h := range henv {
			d := est[i] - h
			errE += real(d)*real(d) + imag(d)*imag(d)
			refE += real(h)*real(h) + imag(h)*imag(h)
		}
		if dsp.DB(errE/refE) > -40 {
			t.Fatalf("channel estimate error %v dB", dsp.DB(errE/refE))
		}
	})
}
