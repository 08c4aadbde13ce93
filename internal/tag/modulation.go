// Package tag implements the BackFi IoT sensor: the n-PSK backscatter
// reflection modulator built from an SPDT switch tree, the low-power
// envelope-detector wake-up receiver, tag-side convolutional encoding,
// packet framing, and the link-layer timing of paper Fig. 4
// (detection 16 µs → silent 16 µs → preamble 32 µs → payload).
package tag

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Modulation is the tag's reflection constellation: the paper's
// BPSK/QPSK/16PSK switch-tree orders, plus the 16-QAM alternative the
// paper compares against (see qam.go).
type Modulation int

const (
	// BPSK: 1 bit/symbol, one SPDT switch.
	BPSK Modulation = iota
	// QPSK: 2 bits/symbol, three SPDT switches.
	QPSK
	// PSK16: 4 bits/symbol, fifteen SPDT switches.
	PSK16
)

// Modulations lists the paper's PSK orders (the Fig. 7 set).
var Modulations = []Modulation{BPSK, QPSK, PSK16}

// AllModulations additionally includes the 16-QAM extension.
var AllModulations = []Modulation{BPSK, QPSK, PSK16, QAM16}

// Validate reports whether m is one of the defined constellations.
// Constellation lookups (BitsPerSymbol, Map, …) treat an unknown order
// as an internal invariant violation and panic, so config paths must
// validate first.
func (m Modulation) Validate() error {
	switch m {
	case BPSK, QPSK, PSK16, QAM16:
		return nil
	}
	return fmt.Errorf("tag: unknown modulation %d", int(m))
}

// BitsPerSymbol returns the information bits carried per tag symbol.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case PSK16, QAM16:
		return 4
	}
	panic("tag: unknown modulation")
}

// Points returns the constellation size.
func (m Modulation) Points() int { return 1 << uint(m.BitsPerSymbol()) }

// SwitchCount returns the number of SPDT switches in the phase-selector
// tree of paper Fig. 3: a full binary tree with Points−1 internal
// nodes. The QAM16 modulator ([49]-style) needs the same selector tree
// plus attenuation states and is charged the same count.
func (m Modulation) SwitchCount() int { return m.Points() - 1 }

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case PSK16:
		return "16PSK"
	case QAM16:
		return "16QAM"
	}
	return fmt.Sprintf("Modulation(%d)", int(m))
}

// grayEncode returns the Gray code of v.
func grayEncode(v int) int { return v ^ (v >> 1) }

// Phase returns the reflected phase (radians) selected by symbol index
// s in [0, Points): the trace lengths at the tree leaves are cut for
// equally spaced phases. It is defined only for the PSK orders.
func (m Modulation) Phase(s int) float64 {
	if m == QAM16 {
		panic("tag: QAM16 states are not phase-only")
	}
	n := m.Points()
	if s < 0 || s >= n {
		panic(fmt.Sprintf("tag: symbol %d out of range for %s", s, m))
	}
	return 2 * math.Pi * float64(s) / float64(n)
}

// MapBits converts a bit slice into constellation phasors e^{jθ} using
// Gray labeling, so adjacent phases differ in one bit. len(bits) must be
// a multiple of BitsPerSymbol.
func (m Modulation) MapBits(bits []byte) []complex128 {
	return m.MapBitsInto(nil, bits)
}

// MapBitsInto is MapBits writing into dst's storage, which it grows
// only when its capacity is short.
func (m Modulation) MapBitsInto(dst []complex128, bits []byte) []complex128 {
	if m == QAM16 {
		return qam16Map(dst, bits)
	}
	k := m.BitsPerSymbol()
	if len(bits)%k != 0 {
		panic("tag: bit count not a multiple of bits per symbol")
	}
	out := grow(dst, len(bits)/k)
	for i := range out {
		v := 0
		for j := 0; j < k; j++ {
			v = v<<1 | int(bits[i*k+j])
		}
		s, c := math.Sincos(m.Phase(grayIndex(m, v)))
		out[i] = complex(c, s)
	}
	return out
}

// grayIndex maps a bit label value to its constellation position such
// that neighbors differ by one bit: position p carries label gray(p),
// so label v sits at gray^{-1}(v).
func grayIndex(m Modulation, v int) int {
	n := m.Points()
	for p := 0; p < n; p++ {
		if grayEncode(p) == v {
			return p
		}
	}
	panic("tag: unreachable")
}

// DemapSoft converts received phasor estimates into per-bit soft values
// (+ → bit 0) with the max-log approximation over the PSK
// constellation, weighted by the estimate magnitudes (MRC confidence).
func (m Modulation) DemapSoft(points []complex128) []float64 {
	return m.DemapSoftInto(nil, points)
}

// DemapSoftInto is DemapSoft writing into dst's storage, which it grows
// only when its capacity is short.
func (m Modulation) DemapSoftInto(dst []float64, points []complex128) []float64 {
	k := m.BitsPerSymbol()
	if cap(dst) < len(points)*k {
		dst = make([]float64, len(points)*k)
	}
	out := dst[:len(points)*k]
	if m == QAM16 {
		qam16DemapSoft(out, points)
		return out
	}
	n := m.Points()
	// Precompute constellation with labels.
	type entry struct {
		pt    complex128
		label int
	}
	var table [16]entry
	for p := 0; p < n; p++ {
		s, c := math.Sincos(m.Phase(p))
		table[p] = entry{complex(c, s), grayEncode(p)}
	}
	for pi, y := range points {
		mag := cmplx.Abs(y)
		var u complex128
		if mag > 0 {
			u = y / complex(mag, 0)
		}
		for bit := 0; bit < k; bit++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for _, e := range table[:n] {
				dr := real(u) - real(e.pt)
				di := imag(u) - imag(e.pt)
				d := dr*dr + di*di
				if (e.label>>(uint(k-1-bit)))&1 == 0 {
					if d < d0 {
						d0 = d
					}
				} else if d < d1 {
					d1 = d
				}
			}
			out[pi*k+bit] = (d1 - d0) * mag
		}
	}
	return out
}

// DemapHard slices phasors to bit labels.
func (m Modulation) DemapHard(points []complex128) []byte {
	return m.DemapHardInto(nil, points)
}

// DemapHardInto is DemapHard writing into dst's storage, which it
// grows only when its capacity is short.
func (m Modulation) DemapHardInto(dst []byte, points []complex128) []byte {
	if m == QAM16 {
		return qam16DemapHard(dst, points)
	}
	k := m.BitsPerSymbol()
	n := m.Points()
	out := growBits(dst, len(points)*k)
	for _, y := range points {
		// Nearest phase: quantize the angle.
		theta := cmplx.Phase(y)
		if theta < 0 {
			theta += 2 * math.Pi
		}
		p := int(math.Round(theta/(2*math.Pi)*float64(n))) % n
		label := grayEncode(p)
		for j := k - 1; j >= 0; j-- {
			out = append(out, byte(label>>uint(j))&1)
		}
	}
	return out
}

// grow returns dst resized to n, reallocating only when its capacity
// is short. Contents are unspecified.
func grow(dst []complex128, n int) []complex128 {
	if cap(dst) < n {
		return make([]complex128, n)
	}
	return dst[:n]
}

// growBits returns an empty slice with room for n bits, reusing dst's
// storage when its capacity allows.
func growBits(dst []byte, n int) []byte {
	if cap(dst) < n {
		return make([]byte, 0, n)
	}
	return dst[:0]
}
