package fec

import (
	"math"
	"math/rand"
	"testing"

	"backfi/internal/cpufeat"
)

// withKernels runs f once per add-compare-select kernel this machine
// can run — the Go kernel, then the AVX2 one if the CPU has it — and
// restores the start-up choice.
func withKernels(t testing.TB, f func(kernel string)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f("generic")
	if !cpufeat.AVX2 {
		t.Log("no AVX2: the assembly kernel is not exercised")
		return
	}
	useAVX2 = true
	f("avx2")
}

// TestACSKernelsAgree runs both kernels over noisy streams of every
// length from 1 to 300 steps, depunctured streams at rates 2/3 and 3/4
// (erasure zeros), all-zero streams (every compare ties), and streams
// of ±0, ±Inf, NaN and ±1e308 (metrics overflow to ±Inf and NaN), and
// requires the same survivor words, final metrics and decoded bits.
func TestACSKernelsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for steps := 1; steps <= 300; steps++ {
		soft := HardToSoft(ConvEncode(randBits(r, steps)))
		sigma := 0.1 + 2*r.Float64()
		for i := range soft {
			soft[i] += sigma * r.NormFloat64()
		}
		sameAcrossKernels(t, "noisy", soft)
	}
	for _, rate := range []CodeRate{Rate23, Rate34} {
		for i := 0; i < 100; i++ {
			coded := EncodeTerminated(randBits(r, 1+r.Intn(300)))
			tx := HardToSoft(Puncture(coded, rate))
			for k := range tx {
				tx[k] += r.NormFloat64()
			}
			mother, err := Depuncture(tx, rate, len(coded))
			if err != nil {
				t.Fatal(err)
			}
			sameAcrossKernels(t, "rate "+rate.String(), mother)
		}
	}
	for _, steps := range []int{1, 6, 7, 64, 222, 300} {
		sameAcrossKernels(t, "all-zero", make([]float64, 2*steps))
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 1, -1}
	for i := 0; i < 300; i++ {
		soft := make([]float64, 2*(1+r.Intn(100)))
		for k := range soft {
			soft[k] = special[r.Intn(len(special))]
		}
		sameAcrossKernels(t, "special values", soft)
	}
	// A run of ±1e308 overflows every surviving metric to +Inf, after
	// which opposing terms meet as Inf − Inf.
	big := make([]float64, 2*40)
	for k := range big {
		big[k] = 1e308 * float64(1-2*(k/3%2))
	}
	sameAcrossKernels(t, "overflow", big)
}
