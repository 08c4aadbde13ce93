package tag

import (
	"math"
	"math/cmplx"
)

// 16-QAM backscatter (the [49]-style modulator the paper declined):
// the tag varies both the phase and the magnitude of its reflection
// coefficient. Physics caps |Γ| at 1, so the constellation is
// normalized to unit *peak* amplitude — which is exactly why the paper
// chose n-PSK: QAM's inner points reflect less energy ("the least
// amount of RF signal degradation", Sec. 5.2), costing ≈2.6 dB of
// average reflected power before any slicing penalty.

// QAM16 extends the Modulation set with 16-QAM reflection states.
const QAM16 Modulation = PSK16 + 1

// qam16Points holds the Gray-labeled constellation at unit peak
// amplitude; index = labeled value (b0b1b2b3, b0 first).
var qam16Points = buildQAM16()

func buildQAM16() [16]complex128 {
	// Standard 16-QAM with axis levels {-3,-1,1,3}, Gray-coded per
	// axis, then scaled so the corner magnitude (|±3±3j|) is 1.
	axis := func(b0, b1 byte) float64 {
		switch b0<<1 | b1 {
		case 0b00:
			return -3
		case 0b01:
			return -1
		case 0b11:
			return 1
		default:
			return 3
		}
	}
	scale := 1 / math.Sqrt(18) // |3+3j| = √18
	var pts [16]complex128
	for v := 0; v < 16; v++ {
		b := [4]byte{byte(v >> 3 & 1), byte(v >> 2 & 1), byte(v >> 1 & 1), byte(v & 1)}
		pts[v] = complex(axis(b[0], b[1])*scale, axis(b[2], b[3])*scale)
	}
	return pts
}

// QAM16AveragePower returns the mean |Γ|² of the peak-normalized
// constellation — the reflected-energy penalty vs PSK's 1.0.
func QAM16AveragePower() float64 {
	var p float64
	for _, pt := range qam16Points {
		p += real(pt)*real(pt) + imag(pt)*imag(pt)
	}
	return p / 16
}

// qam16Map converts bits (multiples of 4) to reflection states.
func qam16Map(dst []complex128, bits []byte) []complex128 {
	if len(bits)%4 != 0 {
		panic("tag: QAM16 bit count not a multiple of 4")
	}
	out := grow(dst, len(bits)/4)
	for i := range out {
		v := int(bits[4*i])<<3 | int(bits[4*i+1])<<2 | int(bits[4*i+2])<<1 | int(bits[4*i+3])
		out[i] = qam16Points[v]
	}
	return out
}

// qam16DemapHard slices points to bit labels by nearest constellation
// point (amplitude matters, unlike PSK).
func qam16DemapHard(dst []byte, points []complex128) []byte {
	out := growBits(dst, 4*len(points))
	for _, y := range points {
		best := math.Inf(1)
		bi := 0
		for v, pt := range qam16Points {
			if d := sqAbs(y - pt); d < best {
				best, bi = d, v
			}
		}
		out = append(out, byte(bi>>3&1), byte(bi>>2&1), byte(bi>>1&1), byte(bi&1))
	}
	return out
}

// qam16DemapSoft computes max-log per-bit soft values into out
// (4 per point), scaled by the point magnitude like the PSK demapper.
func qam16DemapSoft(out []float64, points []complex128) {
	for pi, y := range points {
		mag := cmplx.Abs(y)
		for bit := 0; bit < 4; bit++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for v, pt := range qam16Points {
				d := sqAbs(y - pt)
				if v>>(3-bit)&1 == 0 {
					if d < d0 {
						d0 = d
					}
				} else if d < d1 {
					d1 = d
				}
			}
			out[pi*4+bit] = (d1 - d0) * (1 + mag)
		}
	}
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
