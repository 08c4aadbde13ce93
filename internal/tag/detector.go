package tag

import (
	"math"
	"math/rand"

	"backfi/internal/dsp"
)

// Wake-up protocol constants (paper Sec. 4.1).
const (
	// WakeBits is the length of the AP's pseudo-random wake preamble.
	WakeBits = 16
	// WakeBitSamples is one preamble bit period (1 µs at 20 MHz).
	WakeBitSamples = 20
	// WakeLenSamples is the whole wake preamble duration (16 µs).
	WakeLenSamples = WakeBits * WakeBitSamples
)

// WakeSequence returns the 16-bit pseudo-random preamble assigned to a
// tag id. The AP transmits a pulse for each one bit and silence for
// each zero. Sequences are balanced (8 ones) so the detector threshold
// (half the peak) discriminates.
func WakeSequence(tagID int) []byte {
	r := rand.New(rand.NewSource(0x5eed + int64(tagID)))
	bits := make([]byte, WakeBits)
	ones := 0
	for ones != 8 {
		ones = 0
		for i := range bits {
			bits[i] = byte(r.Intn(2))
			ones += int(bits[i])
		}
	}
	return bits
}

// WakeWaveform builds the AP's on-off-keyed wake transmission for the
// given sequence at the given amplitude (√watts per sample during a
// pulse).
func WakeWaveform(seq []byte, amplitude float64) []complex128 {
	out := make([]complex128, len(seq)*WakeBitSamples)
	for i, b := range seq {
		if b == 0 {
			continue
		}
		for k := 0; k < WakeBitSamples; k++ {
			out[i*WakeBitSamples+k] = complex(amplitude, 0)
		}
	}
	return out
}

// EnergyDetector models the tag's sub-µW wake-up receiver: an envelope
// detector, a peak-hold with a half-amplitude threshold, a 1 µs
// comparator, and a sliding 16-bit correlator (paper Sec. 4.1,
// refs [40, 18]).
type EnergyDetector struct {
	// SensitivityDBm is the weakest detectable input (paper −41 to
	// −56 dBm; the conservative −41 dBm figure is the default).
	SensitivityDBm float64
	// MatchThreshold is the minimum number of matching bits (of 16)
	// to declare a wake (allows a couple of comparator errors).
	MatchThreshold int
}

// NewEnergyDetector returns a detector with the paper's conservative
// sensitivity.
func NewEnergyDetector() *EnergyDetector {
	return &EnergyDetector{SensitivityDBm: -41, MatchThreshold: 15}
}

// Detect scans the received baseband stream for the wake sequence.
// It returns the sample index just after the preamble (where the
// excitation packet begins) and true, or 0 and false.
func (d *EnergyDetector) Detect(rx []complex128, seq []byte) (int, bool) {
	if len(rx) < len(seq)*WakeBitSamples {
		return 0, false
	}
	// Envelope → per-bit energy decisions. A wake scan covers a few
	// dozen bits, so the envelope lives on the stack.
	nbits := len(rx) / WakeBitSamples
	var envBuf [256]float64
	env := envBuf[:0]
	if nbits > len(envBuf) {
		env = make([]float64, 0, nbits)
	}
	env = env[:nbits]
	for i := range env {
		var e float64
		for k := 0; k < WakeBitSamples; k++ {
			v := rx[i*WakeBitSamples+k]
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		env[i] = e / WakeBitSamples
	}
	floor := dsp.UnDBm(d.SensitivityDBm)
	// Peak-hold threshold: half the peak *amplitude* = quarter power.
	peak := 0.0
	for _, e := range env {
		if e > peak {
			peak = e
		}
	}
	if peak < floor {
		return 0, false
	}
	thresh := peak / 4
	// Sliding correlation of the comparator bits (envelope ≥ threshold
	// reads 1) against the sequence.
	for off := 0; off+len(seq) <= nbits; off++ {
		match := 0
		for i, s := range seq {
			if (env[off+i] >= thresh) == (s == 1) {
				match++
			}
		}
		if match >= d.MatchThreshold {
			return (off + len(seq)) * WakeBitSamples, true
		}
	}
	return 0, false
}

// DetectionRangeM returns the maximum AP–tag distance at which the
// detector wakes, for a given transmit power and one-way path loss
// model — a planning helper used by the examples.
func (d *EnergyDetector) DetectionRangeM(txPowerDBm, plExponent, pl1mDB float64) float64 {
	margin := txPowerDBm - d.SensitivityDBm - pl1mDB
	if margin <= 0 {
		return 0
	}
	return math.Pow(10, margin/(10*plExponent))
}
