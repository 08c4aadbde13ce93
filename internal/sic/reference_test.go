package sic

import (
	"fmt"

	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/obs"
)

// Canceller is the dense, full-capture canceller Reusable replaced,
// kept as the reference the physics tests hold both to. It holds
// trained analog and digital channel estimates.
//
// A Canceller reuses an internal scratch buffer between Train and
// Cancel, so one instance must not be shared across goroutines; the
// parallel sweep engine gives every trial its own link (and therefore
// its own canceller).
type Canceller struct {
	cfg     Config
	analog  []complex128
	digital []complex128
	report  Report
	scratch []complex128 // reconstruction buffer reused across calls
}

// Train estimates the self-interference channel from the window
// [start, stop) of the received signal y, during which only the AP's
// own transmission (and noise) is on the air — the tag's silent period.
//
// xTap is the PA-output copy available to the analog canceller
// (including transmit distortion); xIdeal is the clean baseband copy
// the digital stage uses. In an ideal-hardware simulation the two may
// be the same slice.
func Train(cfg Config, xTap, xIdeal, y []complex128, start, stop int) (*Canceller, error) {
	if cfg.DigitalTaps <= 0 {
		return nil, fmt.Errorf("sic: digital stage is required (DigitalTaps=%d)", cfg.DigitalTaps)
	}
	if stop-start < cfg.DigitalTaps*2 {
		return nil, fmt.Errorf("sic: training window of %d samples too short for %d taps", stop-start, cfg.DigitalTaps)
	}
	c := &Canceller{cfg: cfg}
	c.report.BeforeDBm = dsp.DBm(dsp.Power(y[start:stop]))

	work := y
	if cfg.AnalogTaps > 0 {
		sp := cfg.Obs.Histogram(obs.MetricStageDuration, obs.HelpStageDuration, obs.DurationBuckets, "stage", "sic_analog_train").Start()
		hA, err := linalg.ToeplitzLS(xTap, y, cfg.AnalogTaps, start, stop, cfg.Lambda)
		if err != nil {
			return nil, fmt.Errorf("sic: analog estimate: %w", err)
		}
		c.analog = make([]complex128, len(hA))
		quantizeTapsInto(c.analog, hA, cfg.AnalogMagBits, cfg.AnalogPhaseBits)
		c.scratch = dsp.ConvolveSameInto(c.scratch, xTap, c.analog)
		work = dsp.Sub(y, c.scratch)
		c.report.AfterAnalogDBm = dsp.DBm(dsp.Power(work[start:stop]))
		sp.End()
	} else {
		c.report.AfterAnalogDBm = c.report.BeforeDBm
	}

	sp := cfg.Obs.Histogram(obs.MetricStageDuration, obs.HelpStageDuration, obs.DurationBuckets, "stage", "sic_digital_train").Start()
	hD, err := linalg.ToeplitzLS(xIdeal, work, cfg.DigitalTaps, start, stop, cfg.Lambda)
	if err != nil {
		return nil, fmt.Errorf("sic: digital estimate: %w", err)
	}
	c.digital = hD
	c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, hD)
	resid := dsp.Sub(work[start:stop], c.scratch[start:stop])
	c.report.AfterDBm = dsp.DBm(dsp.Power(resid))
	c.report.CancellationDB = c.report.BeforeDBm - c.report.AfterDBm
	sp.End()

	// Canceller health: the residual floor is the paper's Fig. 7
	// quantity (≈ thermal floor when cancellation works), and the
	// achieved depth is its ≈78–80 dB headline.
	cfg.Obs.Histogram(obs.MetricSICResidual, "Post-cancellation floor in dBm over the training window.", obs.DBBuckets).Observe(c.report.AfterDBm)
	cfg.Obs.Histogram(obs.MetricSICCancellation, "Total self-interference suppression in dB.", obs.DBBuckets).Observe(c.report.CancellationDB)
	return c, nil
}

// Cancel subtracts the reconstructed self-interference from the whole
// received signal, using the same transmit copies as Train. y is not
// modified.
func (c *Canceller) Cancel(xTap, xIdeal, y []complex128) []complex128 {
	var out []complex128
	if len(c.analog) > 0 {
		c.scratch = dsp.ConvolveSameInto(c.scratch, xTap, c.analog)
		out = dsp.Sub(y, c.scratch)
		c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, c.digital)
		dsp.SubInPlace(out, c.scratch)
		return out
	}
	c.scratch = dsp.ConvolveSameInto(c.scratch, xIdeal, c.digital)
	return dsp.Sub(y, c.scratch)
}

// Report returns the training-window power summary.
func (c *Canceller) Report() Report { return c.report }

// estimatedChannel returns the combined analog+digital h_env estimate
// of a trained canceller's taps.
func estimatedChannel(analog, digital []complex128) []complex128 {
	n := max(len(analog), len(digital))
	out := make([]complex128, n)
	for i, v := range analog {
		out[i] += v
	}
	for i, v := range digital {
		out[i] += v
	}
	return out
}
