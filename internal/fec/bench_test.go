package fec

import (
	"math/rand"
	"testing"
)

func BenchmarkConvEncode1500B(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	bits := randBits(r, 12000)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		ConvEncode(bits)
	}
}

func BenchmarkViterbiDecode1500B(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	bits := randBits(r, 12000)
	soft := HardToSoft(EncodeTerminated(bits))
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(soft, true); err != nil {
			b.Fatal(err)
		}
	}
}

// tagFrameInfoBits is the information length of the tag's 24 B frame:
// the payload plus the 2-byte length header and the CRC-8 trailer. A
// terminated decode of it runs 222 trellis steps.
const tagFrameInfoBits = 8 * (24 + 3)

func BenchmarkViterbiDecodeTagFrame(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	soft := HardToSoft(EncodeTerminated(randBits(r, tagFrameInfoBits)))
	for i := range soft {
		soft[i] += 0.5 * r.NormFloat64()
	}
	b.Run("reuse", func(b *testing.B) {
		var v Viterbi
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := v.Decode(soft, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	// reference is the state-by-state kernel the butterfly replaced,
	// kept for the speed comparison.
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refViterbiDecode(soft, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkScramble1500B(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	bits := randBits(r, 12000)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		NewScrambler(0x5D).Scramble(bits)
	}
}
