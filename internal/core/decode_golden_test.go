package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"backfi/internal/fault"
)

// goldenFaulted2mHash pins the decode stage's output over a faulted
// 2 m serving run. Any change to framing, puncturing, demapping or the
// Viterbi kernel that alters a single decoded bit, a CRC verdict, an
// SNR estimate or a correction count moves it.
const goldenFaulted2mHash = 0x27829f3e45453a2f

// TestDecodeGoldenFaulted2m serves 8 sessions × 50 frames of 24 B at
// 2 m under fault.Standard(0.1) and hashes every frame's outcome:
// decoded payload, FrameOK, attempts, SNR bits and corrected-bit count.
// Faulted frames exercise the corrupted-header paths (a length header
// pointing past the capture, the whole-window fallback decode) as well
// as clean decodes.
func TestDecodeGoldenFaulted2m(t *testing.T) {
	if testing.Short() {
		t.Skip("400 faulted frames")
	}
	prof := fault.Standard(0.1)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	failed := 0
	for sess := 0; sess < 8; sess++ {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = 1000 + int64(sess)
		cfg.Faults = &prof
		s, err := NewSession(cfg, 0.95, 2)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 50; f++ {
			payload := make([]byte, 24)
			for i := range payload {
				payload[i] = byte(sess*131 + f*17 + i*7)
			}
			before := s.Stats.PacketsSent
			pr, _, err := s.Send(payload)
			if err != nil {
				t.Fatalf("session %d frame %d: %v", sess, f, err)
			}
			put(uint64(s.Stats.PacketsSent - before))
			if pr == nil {
				put(math.MaxUint64)
				continue
			}
			res := pr.Decode
			if !res.FrameOK {
				failed++
			}
			put(uint64(len(res.Payload)))
			h.Write(res.Payload)
			if res.FrameOK {
				put(1)
			} else {
				put(0)
			}
			put(math.Float64bits(res.SNRdB))
			put(uint64(res.ViterbiCorrectedBits))
		}
	}
	if failed == 0 {
		t.Fatal("no faulted frame failed: the golden run does not reach the failure paths")
	}
	if got := h.Sum64(); got != goldenFaulted2mHash {
		t.Fatalf("decode golden hash %#x, want %#x (%d last attempts failed)", got, uint64(goldenFaulted2mHash), failed)
	}
}
