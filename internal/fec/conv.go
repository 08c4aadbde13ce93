// Package fec implements the forward-error-correction primitives shared
// by the WiFi PHY and the BackFi tag: the industry-standard K=7
// (133,171) convolutional code, 802.11 puncturing to rates 2/3 and 3/4,
// a soft-decision Viterbi decoder, the 802.11 scrambler, and CRC framing
// checks.
package fec

import "fmt"

// Generator polynomials of the rate-1/2, constraint-length-7 mother code
// (octal 133 and 171), as used by 802.11 and by the BackFi tag encoder
// ("6 shift registers and 8 XOR gates", paper Sec. 4.1).
const (
	G0 = 0o133
	G1 = 0o171
	// ConstraintLength is the code's constraint length K.
	ConstraintLength = 7
	// NumStates is the number of trellis states (2^(K-1)).
	NumStates = 1 << (ConstraintLength - 1)
	// TailBits is the number of zero bits appended to terminate the
	// trellis (K-1).
	TailBits = ConstraintLength - 1
)

// parity returns the parity (XOR of all bits) of v.
func parity(v uint32) byte {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return byte(v & 1)
}

// ConvEncode encodes bits with the (133,171) mother code at rate 1/2.
// For each input bit it emits two output bits (A from G0, then B from
// G1). The encoder starts from the all-zeros state. Callers wanting a
// terminated trellis should append TailBits zero bits first (see
// EncodeTerminated).
func ConvEncode(bits []byte) []byte {
	out := make([]byte, 0, 2*len(bits))
	var state uint32 // shift register, most recent bit in MSB position of the K-bit window
	for _, b := range bits {
		if b > 1 {
			panic(fmt.Sprintf("fec: input bit %d out of range", b))
		}
		window := state | uint32(b)<<(ConstraintLength-1)
		out = append(out, parity(window&G0), parity(window&G1))
		state = window >> 1
	}
	return out
}

// EncodeTerminated appends TailBits zeros to bits and encodes, returning
// a trellis that ends in the all-zeros state. The decoder counterpart is
// ViterbiDecode with terminated=true, which strips the tail.
func EncodeTerminated(bits []byte) []byte {
	padded := make([]byte, len(bits)+TailBits)
	copy(padded, bits)
	return ConvEncode(padded)
}

// CodeRate identifies one of the supported punctured code rates.
type CodeRate int

const (
	// Rate12 is the unpunctured rate-1/2 mother code.
	Rate12 CodeRate = iota
	// Rate23 is 802.11's rate-2/3 puncturing (drop every second B bit).
	Rate23
	// Rate34 is 802.11's rate-3/4 puncturing.
	Rate34
)

// String returns the conventional name of the rate.
func (r CodeRate) String() string {
	switch r {
	case Rate12:
		return "1/2"
	case Rate23:
		return "2/3"
	case Rate34:
		return "3/4"
	}
	return fmt.Sprintf("CodeRate(%d)", int(r))
}

// Validate reports whether r is one of the defined rates. Rate-dependent
// lookups (Fraction, puncturing) treat an unknown rate as an internal
// invariant violation and panic, so config paths must validate first.
func (r CodeRate) Validate() error {
	switch r {
	case Rate12, Rate23, Rate34:
		return nil
	}
	return fmt.Errorf("fec: unknown code rate %d", int(r))
}

// Fraction returns the information rate as a float (e.g. 0.5 for 1/2).
func (r CodeRate) Fraction() float64 {
	switch r {
	case Rate12:
		return 0.5
	case Rate23:
		return 2.0 / 3.0
	case Rate34:
		return 0.75
	}
	panic("fec: unknown code rate")
}

// puncturePatterns are the keep-masks over mother-code output bits
// (period = len(pattern)), matching IEEE 802.11-2012 Sec. 18.3.5.6,
// indexed by CodeRate. keptPrefix[r][i] counts the kept positions
// among the first i of a period.
var (
	puncturePatterns = [...][]bool{
		Rate12: {true, true},
		// A1 B1 A2 (B2 stolen): keep, keep, keep, drop.
		Rate23: {true, true, true, false},
		// A1 B1 B2 A3 (A2, B3 stolen).
		Rate34: {true, true, false, true, true, false},
	}
	keptPrefix = buildKeptPrefix()
)

func buildKeptPrefix() [len(puncturePatterns)][]int {
	var out [len(puncturePatterns)][]int
	for r, pat := range puncturePatterns {
		out[r] = make([]int, len(pat)+1)
		for i, keep := range pat {
			out[r][i+1] = out[r][i]
			if keep {
				out[r][i+1]++
			}
		}
	}
	return out
}

// puncturePattern returns the rate's shared, read-only keep-mask.
func (r CodeRate) puncturePattern() []bool {
	if r.Validate() != nil {
		panic("fec: unknown code rate")
	}
	return puncturePatterns[r]
}

// Puncture removes the stolen bits of the given rate from a rate-1/2
// coded stream.
func Puncture(coded []byte, rate CodeRate) []byte {
	pat := rate.puncturePattern()
	out := make([]byte, 0, len(coded))
	for i, b := range coded {
		if pat[i%len(pat)] {
			out = append(out, b)
		}
	}
	return out
}

// Depuncture re-inserts erasures (value 0) into a punctured soft stream
// so it lines up with the rate-1/2 trellis. Soft values use the
// convention +1 → bit 0, −1 → bit 1, 0 → erasure. motherLen is the
// desired output length (2 × number of trellis steps).
func Depuncture(soft []float64, rate CodeRate, motherLen int) ([]float64, error) {
	return DepunctureInto(nil, soft, rate, motherLen)
}

// DepunctureInto is Depuncture writing into dst's storage, which it
// grows only when its capacity is short.
func DepunctureInto(dst, soft []float64, rate CodeRate, motherLen int) ([]float64, error) {
	pat := rate.puncturePattern()
	if cap(dst) < motherLen {
		dst = make([]float64, motherLen)
	}
	out := dst[:motherLen]
	si := 0
	for i := range out {
		if !pat[i%len(pat)] {
			out[i] = 0
			continue
		}
		if si >= len(soft) {
			return nil, fmt.Errorf("fec: punctured stream too short: need > %d soft values", len(soft))
		}
		out[i] = soft[si]
		si++
	}
	if si != len(soft) {
		return nil, fmt.Errorf("fec: punctured stream length %d does not match mother length %d at rate %s", len(soft), motherLen, rate)
	}
	return out, nil
}

// PuncturedLength returns the number of transmitted coded bits left of
// motherLen rate-1/2 coded bits after the rate's puncturing: whole
// periods times the kept bits per period, plus the kept bits of the
// partial period. It runs in constant time.
func PuncturedLength(motherLen int, rate CodeRate) int {
	period := len(rate.puncturePattern())
	if motherLen <= 0 {
		return 0
	}
	kept := keptPrefix[rate]
	return motherLen/period*kept[period] + kept[motherLen%period]
}

// HardToSoft converts hard bits to the soft convention (+1 → 0, −1 → 1).
func HardToSoft(bits []byte) []float64 {
	out := make([]float64, len(bits))
	for i, b := range bits {
		out[i] = 1 - 2*float64(b)
	}
	return out
}
