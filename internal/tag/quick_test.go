package tag

import (
	"bytes"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"backfi/internal/fec"
)

// Property-based coverage of the tag's framing and modulation.

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		got, err := ParseFrame(BuildFrame(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecodeFrameBits(t *testing.T) {
	f := func(seed int64, n uint8, modSel, codeSel uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mod := AllModulations[int(modSel)%len(AllModulations)]
		coding := []fec.CodeRate{fec.Rate12, fec.Rate23}[int(codeSel)%2]
		payload := make([]byte, int(n)%120)
		r.Read(payload)
		soft := fec.HardToSoft(EncodeFrameBits(payload, coding, mod))
		got, err := DecodeFrameBits(new(fec.Viterbi), soft, coding, FrameInfoBits(len(payload)))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickModulationRoundTrip(t *testing.T) {
	f := func(seed int64, modSel uint8, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		mod := AllModulations[int(modSel)%len(AllModulations)]
		bits := make([]byte, mod.BitsPerSymbol()*(int(n)%64+1))
		for i := range bits {
			bits[i] = byte(r.Intn(2))
		}
		pts := mod.MapBits(bits)
		// Physical constraint: every reflection state within |Γ| ≤ 1.
		for _, p := range pts {
			if cmplx.Abs(p) > 1+1e-12 {
				return false
			}
		}
		return bytes.Equal(mod.DemapHard(pts), bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCapacityInverse(t *testing.T) {
	f := func(modSel, codeSel uint8, n uint8) bool {
		mod := AllModulations[int(modSel)%len(AllModulations)]
		coding := []fec.CodeRate{fec.Rate12, fec.Rate23}[int(codeSel)%2]
		payload := int(n)
		syms := SymbolsForPayload(payload, coding, mod)
		// The capacity of exactly that many symbols fits the payload...
		if MaxPayloadBytes(syms, coding, mod) < payload {
			return false
		}
		// ...and removing a symbol must not still claim to fit it.
		return SymbolsForPayload(payload, coding, mod) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
