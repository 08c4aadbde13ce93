package channel

import (
	"math"
	"math/rand"
)

// AWGN is a seeded additive white Gaussian noise source.
type AWGN struct {
	rng    *rand.Rand
	sigma  float64 // per-dimension standard deviation
	powerW float64
}

// NewAWGN returns a noise source of the given total complex power in
// watts.
func NewAWGN(r *rand.Rand, powerW float64) *AWGN {
	if powerW < 0 {
		panic("channel: negative noise power")
	}
	return &AWGN{rng: r, sigma: math.Sqrt(powerW / 2), powerW: powerW}
}

// PowerW returns the configured noise power.
func (a *AWGN) PowerW() float64 { return a.powerW }

// Add returns x plus white complex Gaussian noise.
func (a *AWGN) Add(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] + complex(a.rng.NormFloat64()*a.sigma, a.rng.NormFloat64()*a.sigma)
	}
	return out
}

// AddInPlaceRange adds fresh noise to x[lo:hi] in place, drawing
// exactly hi−lo complex samples from the source. The windowed link
// pipeline uses it to pay for noise only over the samples the decoder
// will read; the draw sequence is deterministic for a fixed sequence
// of window sizes.
func (a *AWGN) AddInPlaceRange(x []complex128, lo, hi int) {
	for i := lo; i < hi; i++ {
		x[i] += complex(a.rng.NormFloat64()*a.sigma, a.rng.NormFloat64()*a.sigma)
	}
}

// Samples returns n fresh noise samples.
func (a *AWGN) Samples(n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(a.rng.NormFloat64()*a.sigma, a.rng.NormFloat64()*a.sigma)
	}
	return out
}

// TxDistortion models transmitter hardware error (PA nonlinearity, IQ
// imbalance, phase noise) as an additive white error floor at a fixed
// EVM relative to the instantaneous signal power. The receiver's ideal
// copy of the transmitted signal does not include this error, which is
// what bounds achievable cancellation and backscatter SNR at short
// range (WARP-class hardware: ≈ −28 dB EVM).
type TxDistortion struct {
	rng   *rand.Rand
	evmDB float64
}

// NewTxDistortion returns a distortion source with the given EVM floor
// in dB (negative; e.g. −28). An EVM of −inf disables distortion.
func NewTxDistortion(r *rand.Rand, evmDB float64) *TxDistortion {
	return &TxDistortion{rng: r, evmDB: evmDB}
}

// Apply returns x plus the distortion error term.
func (d *TxDistortion) Apply(x []complex128) []complex128 { return d.ApplyInto(nil, x) }

// ApplyInto writes x plus the distortion error term into dst (grown to
// len(x) if needed) and returns dst[:len(x)]. dst must not alias x.
func (d *TxDistortion) ApplyInto(dst, x []complex128) []complex128 {
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	if math.IsInf(d.evmDB, -1) {
		copy(dst, x)
		return dst
	}
	ratio := math.Pow(10, d.evmDB/10)
	for i, v := range x {
		p := (real(v)*real(v) + imag(v)*imag(v)) * ratio
		s := math.Sqrt(p / 2)
		dst[i] = v + complex(d.rng.NormFloat64()*s, d.rng.NormFloat64()*s)
	}
	return dst
}
