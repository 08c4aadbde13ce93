package tag

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/fec"
)

func TestQAM16Basics(t *testing.T) {
	if QAM16.BitsPerSymbol() != 4 || QAM16.Points() != 16 {
		t.Fatal("QAM16 dimensions wrong")
	}
	if QAM16.String() != "16QAM" {
		t.Fatalf("String = %q", QAM16.String())
	}
	if QAM16.SwitchCount() != 15 {
		t.Fatalf("switch count %d", QAM16.SwitchCount())
	}
}

func TestQAM16PeakNormalized(t *testing.T) {
	// Reflection physics: |Γ| ≤ 1, with the corners exactly at 1.
	maxMag := 0.0
	for _, pt := range qam16Points {
		m := cmplx.Abs(pt)
		if m > 1+1e-12 {
			t.Fatalf("point %v exceeds unit reflection", pt)
		}
		if m > maxMag {
			maxMag = m
		}
	}
	if math.Abs(maxMag-1) > 1e-12 {
		t.Fatalf("peak %v, corners should touch 1", maxMag)
	}
}

func TestQAM16ReflectedEnergyPenalty(t *testing.T) {
	// The paper's reason to prefer PSK: peak-normalized 16-QAM reflects
	// only 5/9 of the energy (−2.55 dB) on average.
	got := QAM16AveragePower()
	if math.Abs(got-5.0/9) > 1e-12 {
		t.Fatalf("average power %v, want 5/9", got)
	}
}

func TestQAM16MapDemapRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bits := randomBits(r, 4*200)
	got := QAM16.DemapHard(QAM16.MapBits(bits))
	for i := range bits {
		if got[i] != bits[i] {
			t.Fatalf("bit %d differs", i)
		}
	}
}

func TestQAM16SoftSigns(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	bits := randomBits(r, 4*64)
	soft := QAM16.DemapSoft(QAM16.MapBits(bits))
	for i, b := range bits {
		if b == 0 && soft[i] <= 0 || b == 1 && soft[i] >= 0 {
			t.Fatalf("bit %d=%d soft %v", i, b, soft[i])
		}
	}
}

func TestQAM16GrayPerAxis(t *testing.T) {
	// Horizontally/vertically adjacent points differ in exactly one bit.
	dmin := 2 / math.Sqrt(18)
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a == b {
				continue
			}
			if cmplx.Abs(qam16Points[a]-qam16Points[b]) > dmin*1.001 {
				continue
			}
			diff := 0
			for x := a ^ b; x != 0; x >>= 1 {
				diff += x & 1
			}
			if diff != 1 {
				t.Fatalf("neighbors %04b/%04b differ in %d bits", a, b, diff)
			}
		}
	}
}

func TestQAM16PhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QAM16.Phase(0)
}

func TestQAM16FrameEncodeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	payload := make([]byte, 40)
	r.Read(payload)
	coded := EncodeFrameBits(payload, 0, QAM16) // fec.Rate12 == 0
	soft := make([]float64, len(coded))
	for i, b := range coded {
		soft[i] = 1 - 2*float64(b)
	}
	got, err := DecodeFrameBits(new(fec.Viterbi), soft, 0, FrameInfoBits(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
