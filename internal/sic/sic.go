// Package sic implements the BackFi AP's two-stage self-interference
// cancellation (paper Sec. 4.2). During the tag's silent period the
// receiver sees only its own transmission through h_env (circulator
// leakage plus environmental reflections); the canceller estimates that
// channel by least squares and subtracts the reconstructed interference
// from the samples the decoder reads (Reusable).
//
// The two stages differ in what copy of the transmission they can use,
// which is the crux of full-duplex hardware [Bharadia'13]:
//
//   - The ANALOG stage taps the power-amplifier output itself, so its
//     reference includes the transmitter's own distortion/noise — it can
//     cancel TX noise — but its FIR taps are implemented with discrete
//     attenuator and phase-shifter steps, so its depth is
//     quantization-limited.
//   - The DIGITAL stage subtracts in baseband using the ideal
//     transmitted samples at full numeric precision, but it can never
//     remove the TX-noise part of the residue because it has no record
//     of it.
//
// Because training happens only while the tag is silent, the
// backscatter signal is never part of the estimate and is not degraded
// by cancellation — the paper's key protocol point. The residue that
// remains (analog quantization of the TX-noise path plus estimation
// noise from the finite silent window) is the 1.7–2.3 dB degradation
// the paper measures (Fig. 11a); it emerges here rather than being
// hardcoded.
package sic

import (
	"fmt"

	"backfi/internal/obs"
)

// Config tunes the canceller.
type Config struct {
	// AnalogTaps is the RF canceller FIR length.
	AnalogTaps int
	// AnalogPhaseBits quantizes each analog tap's phase to 2^bits
	// steps. AnalogTaps = 0 disables the analog stage.
	AnalogPhaseBits int
	// AnalogMagBits is the attenuator resolution in bits.
	AnalogMagBits int
	// DigitalTaps is the digital canceller FIR length.
	DigitalTaps int
	// Lambda is the ridge regularizer of the LS estimates.
	Lambda float64
	// Obs receives the canceller's health metrics (training-stage
	// durations, residual floor, cancellation depth). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
}

// Validate checks the canceller configuration. The digital stage is
// mandatory; the analog stage is optional (AnalogTaps = 0) but when
// present its quantizer resolutions must be positive.
func (c Config) Validate() error {
	if c.DigitalTaps <= 0 {
		return fmt.Errorf("sic: digital stage is required (DigitalTaps=%d)", c.DigitalTaps)
	}
	if c.AnalogTaps < 0 {
		return fmt.Errorf("sic: AnalogTaps %d must be non-negative", c.AnalogTaps)
	}
	if c.AnalogTaps > 0 && (c.AnalogPhaseBits < 1 || c.AnalogMagBits < 1) {
		return fmt.Errorf("sic: analog stage needs positive phase/magnitude resolution, got %d/%d bits",
			c.AnalogPhaseBits, c.AnalogMagBits)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("sic: ridge regularizer %v must be non-negative", c.Lambda)
	}
	return nil
}

// DefaultConfig mirrors the full-duplex hardware of [Bharadia'13]: a
// 16-tap analog board with fine attenuator/phase steps (the board's
// tuning achieves ~60 dB of analog suppression) and a 32-tap digital
// stage.
func DefaultConfig() Config {
	return Config{
		AnalogTaps:      16,
		AnalogPhaseBits: 11,
		AnalogMagBits:   11,
		DigitalTaps:     32,
		Lambda:          1e-12,
	}
}

// Report summarizes a cancellation run.
type Report struct {
	// BeforeDBm is the received power in the training window before
	// cancellation.
	BeforeDBm float64
	// AfterAnalogDBm is the power after the analog stage only.
	AfterAnalogDBm float64
	// AfterDBm is the power after analog + digital cancellation.
	AfterDBm float64
	// CancellationDB is the total suppression achieved.
	CancellationDB float64
}
