package baseline

import (
	"math"
	"math/cmplx"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

// ToneReader is the classic RFID architecture of paper Sec. 3.1: a
// single-frequency excitation, self-interference removed by one
// programmable attenuator + phase shifter (a single complex tap), and
// LTI decoding of the tag's phase modulation.
type ToneReader struct {
	// ToneFreq is the excitation tone's normalized frequency
	// (cycles/sample); 0 is a pure DC baseband tone.
	ToneFreq float64
}

// Tone generates n samples of the excitation at the given power.
func (tr ToneReader) Tone(n int, powerW float64) []complex128 {
	out := make([]complex128, n)
	amp := complex(math.Sqrt(powerW), 0)
	for i := range out {
		out[i] = amp * dsp.Phasor(2*math.Pi*tr.ToneFreq*float64(i))
	}
	return out
}

// SingleTapCancel estimates the one complex coefficient relating x to y
// over the training window and subtracts — all a tone needs, because a
// sinusoid through any LTI channel is just scaled and rotated.
// It returns the cleaned signal and the residual power in the window.
func (tr ToneReader) SingleTapCancel(x, y []complex128, start, stop int) ([]complex128, float64) {
	var num complex128
	var den float64
	for n := start; n < stop; n++ {
		num += y[n] * cmplx.Conj(x[n])
		den += real(x[n])*real(x[n]) + imag(x[n])*imag(x[n])
	}
	var h complex128
	if den > 0 {
		h = num / complex(den, 0)
	}
	out := make([]complex128, len(y))
	for n := range y {
		out[n] = y[n] - h*x[n]
	}
	return out, dsp.Power(out[start:stop])
}

// DecodeTonePhases recovers per-symbol tag phases from a cancelled tone
// backscatter: with a tone, the combined channel is one complex gain,
// so each symbol is decoded by correlating against the excitation
// (paper Eq. 2's standard LTI decode).
func (tr ToneReader) DecodeTonePhases(x, clean []complex128, start, sps, nsym int) []complex128 {
	// Estimate the channel gain from the first symbol (known reference
	// phase 0), then normalize every symbol by it.
	out := make([]complex128, nsym)
	var g complex128
	for s := 0; s < nsym; s++ {
		var acc complex128
		var den float64
		for n := start + s*sps; n < start+(s+1)*sps && n < len(clean); n++ {
			acc += clean[n] * cmplx.Conj(x[n])
			den += real(x[n])*real(x[n]) + imag(x[n])*imag(x[n])
		}
		if den > 0 {
			acc /= complex(den, 0)
		}
		if s == 0 {
			g = acc
			out[s] = 1
			continue
		}
		if g != 0 {
			out[s] = acc / g
		}
	}
	return out
}

// WidebandResidualDB quantifies why the tone architecture fails on
// WiFi: it applies single-tap cancellation to a wideband excitation
// through a frequency-selective channel and reports how far above the
// noise floor the residual sits (paper Sec. 3.2). A multipath channel
// with delay spread leaves tens of dB of uncancelled interference.
func WidebandResidualDB(seed int64, envTaps int, leakageDB float64) float64 {
	r, src := rng.NewWithSource(seed)
	txW := dsp.UnDBm(20)
	sigma := math.Sqrt(txW / 2)
	x := make([]complex128, 4000)
	for i := range x {
		x[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	henv := channel.RayleighTaps(r, envTaps, 0.5).Scale(leakageDB)
	noiseW := channel.ThermalNoiseW(20e6, 6)
	y := channel.NewAWGN(src, noiseW).Add(henv.Apply(x))
	var tr ToneReader
	_, residW := tr.SingleTapCancel(x, y, 0, 320)
	return dsp.DB(residW / noiseW)
}
