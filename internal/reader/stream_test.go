package reader

import (
	"bytes"
	"math/cmplx"
	"testing"

	"backfi/internal/fec"
	"backfi/internal/tag"
)

// streamOf binds a fresh Stream to rd so the tests read like one
// decoder object.
type streamOf struct {
	rd *Reader
	s  [1]Stream
}

func (b *streamOf) Decode(x, xTap, y []complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	return decodeTag(b.rd, b.s[:], x, xTap, [][]complex128{y}, packetStart, packetLen, tcfg)
}

func mustStream(t *testing.T, rd *Reader) *streamOf {
	t.Helper()
	return &streamOf{rd: rd}
}

func TestStreamDecodeMatchesReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  tag.Config
		seed int64
	}{
		{"qpsk", qpskCfg(), 41},
		{"psk16-fast", tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 2}, 42},
		{"bpsk-slow", tag.Config{Mod: tag.BPSK, Coding: fec.Rate12, SymbolRateHz: 500e3, PreambleChips: 32, ID: 2}, 43},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := buildScene(t, tc.seed, tc.cfg, 40, -65)
			rd := mustNew(DefaultConfig())
			want, err := rd.decodeFull(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := mustStream(t, rd)
			got, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.FrameOK || !want.FrameOK {
				t.Fatalf("frame OK: stream %v, reader %v", got.FrameOK, want.FrameOK)
			}
			if !bytes.Equal(got.Payload, want.Payload) || !bytes.Equal(got.Payload, sc.payload) {
				t.Fatal("payload differs between stream and reader decode")
			}
			if got.TimingOffset != want.TimingOffset {
				t.Fatalf("timing offset: stream %d, reader %d", got.TimingOffset, want.TimingOffset)
			}
			// The stream's symbol estimates cover exactly the frame; the
			// legacy decoder also estimates the post-frame silence. Over
			// the shared prefix the two pipelines differ only by normal-
			// equation summation order.
			if len(got.SymbolEstimates) > len(want.SymbolEstimates) {
				t.Fatalf("stream produced %d estimates, reader %d", len(got.SymbolEstimates), len(want.SymbolEstimates))
			}
			for i, g := range got.SymbolEstimates {
				if d := cmplx.Abs(g - want.SymbolEstimates[i]); d > 1e-3 {
					t.Fatalf("symbol %d: stream %v vs reader %v (|Δ|=%g)", i, g, want.SymbolEstimates[i], d)
				}
			}
		})
	}
}

func TestStreamDecodeDeterministicAcrossReuse(t *testing.T) {
	// The same stream instance must produce identical results for the
	// same input regardless of what it decoded before — scratch reuse
	// must never leak state between frames.
	scA := buildScene(t, 51, qpskCfg(), 40, -65)
	scB := buildScene(t, 52, qpskCfg(), 24, -60)
	rd := mustNew(DefaultConfig())

	fresh := mustStream(t, rd)
	refA, err := fresh.Decode(scA.x, scA.x, scA.y, scA.packetStart, scA.packetLen, scA.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	refEsts := append([]complex128(nil), refA.SymbolEstimates...)

	reused := mustStream(t, rd)
	if _, err := reused.Decode(scB.x, scB.x, scB.y, scB.packetStart, scB.packetLen, scB.tcfg); err != nil {
		t.Fatal(err)
	}
	again, err := reused.Decode(scA.x, scA.x, scA.y, scA.packetStart, scA.packetLen, scA.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Payload, refA.Payload) || again.FrameOK != refA.FrameOK {
		t.Fatal("reused stream decoded a different payload")
	}
	if len(again.SymbolEstimates) != len(refEsts) {
		t.Fatalf("estimate count %d vs %d", len(again.SymbolEstimates), len(refEsts))
	}
	for i := range refEsts {
		if again.SymbolEstimates[i] != refEsts[i] {
			t.Fatalf("symbol %d not bit-identical across stream reuse", i)
		}
	}
	if again.SNRdB != refA.SNRdB || again.PreambleCorr != refA.PreambleCorr {
		t.Fatal("scalar results not bit-identical across stream reuse")
	}
}

func TestStreamDecodeLowSNRFailsGracefully(t *testing.T) {
	sc := buildScene(t, 53, qpskCfg(), 80, -145)
	rd := mustNew(DefaultConfig())
	st := mustStream(t, rd)
	res, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, sc.tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FrameOK {
		t.Fatal("buried-in-noise frame must not validate")
	}
	if res.Payload != nil {
		t.Fatal("failed frame must carry no payload")
	}
}

func TestStreamDecodeArgumentErrors(t *testing.T) {
	sc := buildScene(t, 54, qpskCfg(), 16, -60)
	rd := mustNew(DefaultConfig())
	st := mustStream(t, rd)
	if _, err := st.Decode(sc.x, sc.x, sc.y[:len(sc.y)-1], sc.packetStart, sc.packetLen, sc.tcfg); err == nil {
		t.Fatal("want length-mismatch error")
	}
	if _, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, len(sc.x), sc.tcfg); err == nil {
		t.Fatal("want out-of-range packet error")
	}
	bad := sc.tcfg
	bad.SymbolRateHz = 0
	if _, err := st.Decode(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, bad); err == nil {
		t.Fatal("want tag-config validation error")
	}
}
