package sic

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/obs"
)

// Reusable is the windowed pipeline's canceller: retrained every frame
// (the AR(1) channel decorrelates too fast for stale taps to survive a
// step), it carries no state from one frame to the next except its
// buffers, so it lives in pooled decode scratch and any frame of any
// session may draw it. It reuses every buffer —
// tap vectors, normal-equation workspaces, reconstruction scratch — so
// steady-state retraining allocates nothing. It also works over sample
// windows: training reads only the silent window and CancelRange
// reconstructs interference only where the decoder will look, instead
// of over the whole capture.
//
// Numerics: Retrain solves the same ridge normal equations as the dense
// reference canceller (reference_test.go) — the analog stage via
// linalg.ToeplitzLSFast, the digital stage against a caller-supplied
// linalg.ToeplitzFactor of the clean excitation — which sum the Gram in
// a different order: results are deterministic but not bit-identical
// to the reference.
//
// Not safe for concurrent use; one frame owns it at a time.
type Reusable struct {
	cfg     Config
	m       reusableMetrics
	trace   obs.TraceCtx
	analog  []complex128
	digital []complex128
	report  Report

	wsA      linalg.ToeplitzWorkspace
	rhsD     []complex128 // the digital stage's right-hand side, then taps
	scratch  []complex128 // convolution reconstruction buffer
	scratch2 []complex128 // second stage reconstruction buffer
}

// NewReusable validates cfg and returns an untrained reusable
// canceller. Call Retrain before CancelRange.
func NewReusable(cfg Config) (*Reusable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Reusable{}
	c.Configure(cfg)
	return c, nil
}

// Configure points the canceller at a validated cfg, resizing its tap
// vectors and keeping its buffers. The zero Reusable is ready once
// configured; Retrain overwrites every tap, so reconfiguring between
// frames leaks nothing from the previous owner.
func (c *Reusable) Configure(cfg Config) {
	c.cfg = cfg
	if c.m.reg != cfg.Obs {
		c.m = newReusableMetrics(cfg.Obs)
	}
	c.analog = resize(c.analog, cfg.AnalogTaps)
	c.digital = resize(c.digital, cfg.DigitalTaps)
}

// reusableMetrics holds the canceller's instruments, resolved once per
// registry; all nil (no-op) without one.
type reusableMetrics struct {
	reg                            *obs.Registry
	analogTrain, digitalTrain      *obs.Histogram
	residualDBm, cancellationDepth *obs.Histogram
}

func newReusableMetrics(r *obs.Registry) reusableMetrics {
	if r == nil {
		return reusableMetrics{}
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram(obs.MetricStageDuration, obs.HelpStageDuration, obs.DurationBuckets, "stage", name)
	}
	return reusableMetrics{
		reg:               r,
		analogTrain:       stage("sic_analog_train"),
		digitalTrain:      stage("sic_digital_train"),
		residualDBm:       r.Histogram(obs.MetricSICResidual, "Post-cancellation floor in dBm over the training window.", obs.DBBuckets),
		cancellationDepth: r.Histogram(obs.MetricSICCancellation, "Total self-interference suppression in dB.", obs.DBBuckets),
	}
}

func resize(b []complex128, n int) []complex128 {
	if cap(b) < n {
		return make([]complex128, n)
	}
	return b[:n]
}

// SetTrace points subsequent Retrain calls at the per-frame trace
// context (DESIGN.md §5h). The zero value disables tracing; the ctx is
// a 2-word copy, so per-frame reassignment costs nothing.
func (c *Reusable) SetTrace(t obs.TraceCtx) { c.trace = t }

// Retrain re-estimates both cancellation stages from the silent window
// [start, stop) of y — the tag's silent period, when only the AP's own
// transmission (and noise) is on the air — into the receiver's
// preallocated state. xTap is the PA-output copy the analog stage taps
// (including transmit distortion) and xIdeal the clean baseband copy
// the digital stage uses; only their samples up to stop are read.
// digital is the factor of the digital stage's Gram matrix, which reads
// only xIdeal: linalg.ToeplitzFactor(xIdeal, DigitalTaps, start, stop,
// Lambda), built once per excitation and shared by every frame against
// it. Its error, if any, is the digital stage's.
//
// The window's residual with the new taps is written into dst[start:stop]
// (dst is grown to len(y) if needed; samples outside the window are
// left as-is), bit for bit what CancelRange would write there, so a
// caller cancels only past stop. dst must not alias y. The grown dst is
// returned.
func (c *Reusable) Retrain(dst, xTap, xIdeal []complex128, digital *linalg.Factor, y []complex128, start, stop int) ([]complex128, error) {
	cfg := c.cfg
	if stop-start < cfg.DigitalTaps*2 {
		return dst, fmt.Errorf("sic: training window of %d samples too short for %d taps", stop-start, cfg.DigitalTaps)
	}
	if cap(dst) < len(y) {
		grown := make([]complex128, len(y))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(y)]
	c.report.BeforeDBm = dsp.DBm(dsp.Power(y[start:stop]))

	// work is what the digital stage fits and cancels: y, or y minus the
	// analog reconstruction, held in dst over the window.
	work := y
	if cfg.AnalogTaps > 0 {
		tsp := c.trace.Start("sic_analog_train")
		sp := c.m.analogTrain.Start()
		hA, err := linalg.ToeplitzLSFast(&c.wsA, xTap, y, cfg.AnalogTaps, start, stop, cfg.Lambda)
		if err != nil {
			return dst, fmt.Errorf("sic: analog estimate: %w", err)
		}
		quantizeTapsInto(c.analog, hA, cfg.AnalogMagBits, cfg.AnalogPhaseBits)
		c.scratch = dsp.ConvolveRangeInto(c.scratch, xTap, c.analog, start, stop)
		for n := start; n < stop; n++ {
			dst[n] = y[n] - c.scratch[n]
		}
		work = dst
		c.report.AfterAnalogDBm = dsp.DBm(dsp.Power(work[start:stop]))
		sp.End()
		tsp.End()
	} else {
		c.report.AfterAnalogDBm = c.report.BeforeDBm
	}

	tsp := c.trace.Start("sic_digital_train")
	sp := c.m.digitalTrain.Start()
	var err error
	if c.rhsD, err = linalg.ToeplitzRHSInto(c.rhsD, xIdeal, work, cfg.DigitalTaps, start, stop); err == nil {
		err = digital.Solve(c.rhsD)
	}
	if err != nil {
		return dst, fmt.Errorf("sic: digital estimate: %w", err)
	}
	copy(c.digital, c.rhsD)
	c.scratch2 = dsp.ConvolveRangeInto(c.scratch2, xIdeal, c.digital, start, stop)
	var pw float64
	for n := start; n < stop; n++ {
		r := work[n] - c.scratch2[n]
		dst[n] = r
		pw += real(r)*real(r) + imag(r)*imag(r)
	}
	c.report.AfterDBm = dsp.DBm(pw / float64(stop-start))
	c.report.CancellationDB = c.report.BeforeDBm - c.report.AfterDBm
	sp.End()
	tsp.End()
	c.m.residualDBm.Observe(c.report.AfterDBm)
	c.m.cancellationDepth.Observe(c.report.CancellationDB)
	return dst, nil
}

// CancelRange writes y minus the reconstructed self-interference over
// samples [lo, hi) into dst (grown to len(y) if needed; samples outside
// the window are left as-is) and returns dst. The reconstruction uses
// the taps from the latest Retrain.
func (c *Reusable) CancelRange(dst, xTap, xIdeal, y []complex128, lo, hi int) []complex128 {
	if cap(dst) < len(y) {
		dst = make([]complex128, len(y))
	}
	dst = dst[:len(y)]
	lo = max(lo, 0)
	hi = min(hi, len(y))
	if lo >= hi {
		return dst
	}
	c.scratch2 = dsp.ConvolveRangeInto(c.scratch2, xIdeal, c.digital, lo, hi)
	if c.cfg.AnalogTaps > 0 {
		c.scratch = dsp.ConvolveRangeInto(c.scratch, xTap, c.analog, lo, hi)
		for n := lo; n < hi; n++ {
			dst[n] = y[n] - c.scratch[n] - c.scratch2[n]
		}
		return dst
	}
	for n := lo; n < hi; n++ {
		dst[n] = y[n] - c.scratch2[n]
	}
	return dst
}

// Report returns the training-window power summary of the last Retrain.
func (c *Reusable) Report() Report { return c.report }

// quantizeTapsInto models analog tuning hardware: each tap's magnitude
// is quantized to 2^magBits uniform steps of the maximum magnitude, and
// its phase to 2^phaseBits steps. It writes into a caller-owned slice
// (len(dst) == len(taps)) so the per-frame analog requantization
// allocates nothing.
func quantizeTapsInto(dst, taps []complex128, magBits, phaseBits int) {
	maxMag := 0.0
	for _, t := range taps {
		if m := cmplx.Abs(t); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	magSteps := float64(int(1) << uint(magBits))
	phaseSteps := float64(int(1) << uint(phaseBits))
	for i, t := range taps {
		m := cmplx.Abs(t)
		ph := cmplx.Phase(t)
		qm := math.Round(m/maxMag*magSteps) / magSteps * maxMag
		qp := math.Round(ph/(2*math.Pi)*phaseSteps) / phaseSteps * 2 * math.Pi
		dst[i] = cmplx.Rect(qm, qp)
	}
}
