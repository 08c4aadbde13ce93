package channel

import (
	"math"

	"backfi/internal/rng"
)

// AWGN is a seeded additive white Gaussian noise source. It draws
// through the block Gaussian generator of its rng stream.
type AWGN struct {
	src    *rng.Source
	sigma  float64 // per-dimension standard deviation
	powerW float64
}

// NewAWGN returns a noise source of the given total complex power in
// watts, drawing from src.
func NewAWGN(src *rng.Source, powerW float64) *AWGN {
	if powerW < 0 {
		panic("channel: negative noise power")
	}
	return &AWGN{src: src, sigma: math.Sqrt(powerW / 2), powerW: powerW}
}

// PowerW returns the configured noise power.
func (a *AWGN) PowerW() float64 { return a.powerW }

// Add returns x plus white complex Gaussian noise.
func (a *AWGN) Add(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	a.src.AddComplexNormal(out, a.sigma)
	return out
}

// AddInPlaceRange adds fresh noise to x[lo:hi] in place, drawing
// exactly hi−lo complex samples from the source. The windowed link
// pipeline uses it to pay for noise only over the samples the decoder
// will read; the draw sequence is deterministic for a fixed sequence
// of window sizes.
func (a *AWGN) AddInPlaceRange(x []complex128, lo, hi int) {
	a.src.AddComplexNormal(x[lo:hi], a.sigma)
}

// Samples returns n fresh noise samples.
func (a *AWGN) Samples(n int) []complex128 {
	out := make([]complex128, n)
	a.src.AddComplexNormal(out, a.sigma)
	return out
}

// TxDistortion models transmitter hardware error (PA nonlinearity, IQ
// imbalance, phase noise) as an additive white error floor at a fixed
// EVM relative to the instantaneous signal power. The receiver's ideal
// copy of the transmitted signal does not include this error, which is
// what bounds achievable cancellation and backscatter SNR at short
// range (WARP-class hardware: ≈ −28 dB EVM).
type TxDistortion struct {
	src   *rng.Source
	evmDB float64
}

// NewTxDistortion returns a distortion source with the given EVM floor
// in dB (negative; e.g. −28), drawing from src. An EVM of −inf
// disables distortion.
func NewTxDistortion(src *rng.Source, evmDB float64) *TxDistortion {
	return &TxDistortion{src: src, evmDB: evmDB}
}

// Apply returns x plus the distortion error term.
func (d *TxDistortion) Apply(x []complex128) []complex128 { return d.ApplyInto(nil, x) }

// ApplyInto writes x plus the distortion error term into dst (grown to
// len(x) if needed) and returns dst[:len(x)]. dst must not alias x.
// Sample v gets complex Gaussian error of per-dimension standard
// deviation |v|·√(EVM/2), its normals drawn a rng.Block at a time.
func (d *TxDistortion) ApplyInto(dst, x []complex128) []complex128 {
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	if math.IsInf(d.evmDB, -1) {
		copy(dst, x)
		return dst
	}
	g := math.Sqrt(math.Pow(10, d.evmDB/10) / 2)
	var blk [rng.Block]float64
	for lo := 0; lo < len(x); lo += rng.Block / 2 {
		seg := x[lo:min(lo+rng.Block/2, len(x))]
		out := dst[lo : lo+len(seg)]
		d.src.FillNormal(blk[:2*len(seg)])
		for k, v := range seg {
			s := g * math.Sqrt(real(v)*real(v)+imag(v)*imag(v))
			out[k] = v + complex(blk[2*k]*s, blk[2*k+1]*s)
		}
	}
	return dst
}
