package sic

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/rng"
)

func TestReusableMatchesTrainCancel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	src := rng.NewSource(31)
	txW := dsp.UnDBm(20)
	x := testSignal(r, 4000, txW)
	henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
	noiseW := channel.ThermalNoiseW(20e6, 6)
	noise := channel.NewAWGN(src, noiseW)
	y := noise.Add(henv.Apply(x))

	cfg := DefaultConfig()
	ref, err := Train(cfg, x, x, y, 0, 320)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Cancel(x, x, y)

	ru, err := NewReusable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ru.Retrain(nil, x, x, ru.factorOf(x, 0, 320), y, 0, 320); err != nil {
		t.Fatal(err)
	}
	got := ru.CancelRange(nil, x, x, y, 0, len(y))

	// Fast normal-equation assembly reorders the Gram sums, so taps agree
	// to solver precision, not bit-for-bit; the cancelled residue must
	// match to well below the thermal floor (~1e-13 W scale).
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > 1e-6 {
			t.Fatalf("sample %d differs by %g: fast %v vs reference %v", i, d, got[i], want[i])
		}
	}
	rr, wr := ru.Report(), ref.Report()
	if diff := rr.CancellationDB - wr.CancellationDB; diff > 0.5 || diff < -0.5 {
		t.Fatalf("cancellation depth: fast %v dB vs reference %v dB", rr.CancellationDB, wr.CancellationDB)
	}
}

func TestReusableWindowedCancelMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-25)
	y := henv.Apply(x)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ru.Retrain(nil, x, x, ru.factorOf(x, 0, 320), y, 0, 320); err != nil {
		t.Fatal(err)
	}
	full := ru.CancelRange(nil, x, x, y, 0, len(y))
	fullCopy := make([]complex128, len(full))
	copy(fullCopy, full)
	win := ru.CancelRange(nil, x, x, y, 700, 1900)
	for i := 700; i < 1900; i++ {
		if win[i] != fullCopy[i] {
			t.Fatalf("sample %d: windowed %v vs full %v", i, win[i], fullCopy[i])
		}
	}
}

// TestRetrainWritesCancelledWindow checks that Retrain leaves in dst,
// over its training window, exactly what a fresh CancelRange over the
// whole capture writes there, by Float64bits, with the analog stage on
// and off, and touches nothing outside the window.
func TestRetrainWritesCancelledWindow(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	xIdeal := testSignal(r, 2000, dsp.UnDBm(20))
	xTap := make([]complex128, len(xIdeal))
	for i, v := range xIdeal {
		xTap[i] = v + 0.01*v*v // a PA nonlinearity the analog stage sees
	}
	henv := channel.RayleighTaps(r, 10, 0.5).Scale(-20)
	y := henv.Apply(xTap)
	sentinel := complex(math.Inf(1), -1)
	const start, stop = 150, 470
	for _, analog := range []int{16, 0} {
		cfg := DefaultConfig()
		cfg.AnalogTaps = analog
		ru, err := NewReusable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]complex128, len(y))
		for i := range dst {
			dst[i] = sentinel
		}
		if dst, err = ru.Retrain(dst, xTap, xIdeal, ru.factorOf(xIdeal, start, stop), y, start, stop); err != nil {
			t.Fatal(err)
		}
		want := ru.CancelRange(nil, xTap, xIdeal, y, 0, len(y))
		for n := range dst {
			w := sentinel
			if n >= start && n < stop {
				w = want[n]
			}
			if math.Float64bits(real(dst[n])) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(dst[n])) != math.Float64bits(imag(w)) {
				t.Fatalf("analog taps %d: sample %d = %v, want %v", analog, n, dst[n], w)
			}
		}
	}
}

func TestReusableRetrainTracksChannelChange(t *testing.T) {
	// The whole point of Reusable is per-frame retraining: after the
	// channel changes, a retrained canceller must cancel the new channel
	// as deeply as a fresh Train would.
	r := rand.New(rand.NewSource(33))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	h1 := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	h2 := channel.RayleighTaps(r, 8, 0.5).Scale(-20)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ru.Retrain(nil, x, x, ru.factorOf(x, 0, 320), h1.Apply(x), 0, 320); err != nil {
		t.Fatal(err)
	}
	y2 := h2.Apply(x)
	if _, err := ru.Retrain(nil, x, x, ru.factorOf(x, 0, 320), y2, 0, 320); err != nil {
		t.Fatal(err)
	}
	resid := ru.CancelRange(nil, x, x, y2, 320, len(y2))
	residDBm := dsp.DBm(dsp.Power(resid[320:]))
	beforeDBm := dsp.DBm(dsp.Power(y2[320:]))
	if beforeDBm-residDBm < 60 {
		t.Fatalf("retrained canceller achieves only %v dB on the new channel", beforeDBm-residDBm)
	}
}

func TestReusableZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	x := testSignal(r, 3000, dsp.UnDBm(20))
	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	y := henv.Apply(x)

	ru, err := NewReusable(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, len(y))
	f := ru.factorOf(x, 0, 320)
	if dst, err = ru.Retrain(dst, x, x, f, y, 0, 320); err != nil {
		t.Fatal(err)
	}
	dst = ru.CancelRange(dst, x, x, y, 320, 2000)
	allocs := testing.AllocsPerRun(10, func() {
		if dst, err = ru.Retrain(dst, x, x, f, y, 0, 320); err != nil {
			t.Fatal(err)
		}
		dst = ru.CancelRange(dst, x, x, y, 320, 2000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Retrain+CancelRange allocates %v per run, want 0", allocs)
	}
}

// factorOf is the digital stage's factor of xIdeal over [start, stop)
// at c's configuration, as a decoder's excitation memo builds it.
func (c *Reusable) factorOf(xIdeal []complex128, start, stop int) *linalg.Factor {
	return linalg.ToeplitzFactor(xIdeal, c.cfg.DigitalTaps, start, stop, c.cfg.Lambda)
}

func TestNewReusableValidates(t *testing.T) {
	if _, err := NewReusable(Config{DigitalTaps: 0}); err == nil {
		t.Fatal("want error for missing digital stage")
	}
}
