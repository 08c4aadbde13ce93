package dsp

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchSignal(n int) []complex128 {
	r := rand.New(rand.NewSource(1))
	return randSignal(r, n)
}

func BenchmarkFFT64(b *testing.B) {
	x := benchSignal(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTInPlace64(b *testing.B) {
	x := benchSignal(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTInPlace(x)
	}
}

func BenchmarkIFFTInPlace64(b *testing.B) {
	x := benchSignal(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IFFTInPlace(x)
	}
}

func BenchmarkConvolveSameInto32Taps(b *testing.B) {
	x := benchSignal(20000)
	h := benchSignal(32)
	dst := make([]complex128, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvolveSameInto(dst, x, h)
	}
}

func BenchmarkConvolveSame32Taps(b *testing.B) {
	x := benchSignal(20000) // 1 ms at 20 MHz
	h := benchSignal(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvolveSame(x, h)
	}
}

func BenchmarkNormalizedCrossCorrelate(b *testing.B) {
	x := benchSignal(4000)
	ref := benchSignal(160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormalizedCrossCorrelate(x, ref)
	}
}

func BenchmarkWelchPSD(b *testing.B) {
	x := benchSignal(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		WelchPSD(x, 64)
	}
}

// BenchmarkConvolveRangeInto times the FIR kernel over the decode
// window of a 2 m frame, a 6,684-sample capture, at the tap counts of
// the channel (3-tap h_f/h_b, 11-tap h_env), the reference (8) and the
// cancellers (16 analog, 32 digital). The plain sub-benchmarks convolve
// [1200, 6684) in one call; win12 convolves the same span as 12-output
// windows at a 20-sample stride, ~274 calls, the shape in which the
// decoder cancels and references its MRC windows.
func BenchmarkConvolveRangeInto(b *testing.B) {
	x := benchSignal(6684)
	dst := make([]complex128, len(x))
	for _, taps := range []int{3, 8, 11, 16, 32} {
		h := benchSignal(taps)
		b.Run(strconv.Itoa(taps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = ConvolveRangeInto(dst, x, h, 1200, len(x))
			}
		})
		b.Run("win12/"+strconv.Itoa(taps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for lo := 1200; lo+12 <= len(x); lo += 20 {
					dst = ConvolveRangeInto(dst, x, h, lo, lo+12)
				}
			}
		})
	}
}
