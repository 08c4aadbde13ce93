package core

import (
	"bytes"
	"runtime"
	"testing"

	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/tag"
)

func seededLinkConfig(seed int64) LinkConfig {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = seed
	return cfg
}

func TestSessionCacheDeliversFrames(t *testing.T) {
	s, err := NewSession(seededLinkConfig(101), 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		payload := s.Link().RandomPayload(24)
		res, ok, err := s.Send(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !ok || !res.PayloadOK || !bytes.Equal(res.Decode.Payload, payload) {
			t.Fatalf("frame %d not delivered", i)
		}
	}
	if s.Stats.FramesDelivered != 10 {
		t.Fatalf("delivered %d/10 frames", s.Stats.FramesDelivered)
	}
}

func TestSessionCacheDeterministic(t *testing.T) {
	run := func() []*PacketResult {
		s, err := NewSession(seededLinkConfig(102), 0.95, 2)
		if err != nil {
			t.Fatal(err)
		}
		var out []*PacketResult
		for i := 0; i < 6; i++ {
			res, _, err := s.Send(s.Link().RandomPayload(24))
			if err != nil {
				t.Fatal(err)
			}
			// A frame whose every ARQ attempt hit a wake failure yields a
			// nil result; determinism then requires the other run to agree.
			out = append(out, res)
		}
		return out
	}
	a, b := run(), run()
	delivered := 0
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("frame %d: delivery outcome differs across identical runs", i)
		}
		if a[i] == nil {
			continue
		}
		delivered++
		if !bytes.Equal(a[i].Decode.Payload, b[i].Decode.Payload) {
			t.Fatalf("frame %d: payloads differ across identical runs", i)
		}
		if a[i].MeasuredSNRdB != b[i].MeasuredSNRdB || a[i].RawBitErrors != b[i].RawBitErrors {
			t.Fatalf("frame %d: diagnostics differ across identical runs", i)
		}
		if len(a[i].Decode.SymbolEstimates) != len(b[i].Decode.SymbolEstimates) {
			t.Fatalf("frame %d: estimate counts differ", i)
		}
		for j := range a[i].Decode.SymbolEstimates {
			if a[i].Decode.SymbolEstimates[j] != b[i].Decode.SymbolEstimates[j] {
				t.Fatalf("frame %d symbol %d not bit-identical", i, j)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no frame delivered; seed gives the test nothing to compare")
	}
}

func TestSessionCacheInvalidatedByTagConfig(t *testing.T) {
	s, err := NewSession(seededLinkConfig(103), 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Send(s.Link().RandomPayload(24)); err != nil || !ok {
		t.Fatalf("initial frame: ok=%v err=%v", ok, err)
	}
	fast := tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
	if err := s.SetTagConfig(fast); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		payload := s.Link().RandomPayload(24)
		res, ok, err := s.Send(payload)
		if err != nil {
			t.Fatalf("post-switch frame %d: %v", i, err)
		}
		if !ok || !bytes.Equal(res.Decode.Payload, payload) {
			t.Fatalf("post-switch frame %d not delivered", i)
		}
	}
}

// BenchmarkRunPacketSteadyStateFastTag is a session's per-frame cost
// at the fastest tag rate once its excitation template exists. The
// default-rate steady, faulted and first-frame costs are timed by
// backfi-bench -micro.
func BenchmarkRunPacketSteadyStateFastTag(b *testing.B) {
	cfg := seededLinkConfig(107)
	cfg.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: tag.DefaultPreambleChips, ID: 1}
	link, err := NewLink(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := link.RandomPayload(24)
	if _, err := link.RunPacket(payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunPacket(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPerSessionMemory pins that no buffer sized by the waveform
// outlives a frame: sessions sharing a pool (as the daemon's do) keep
// only their placement, tag and counters between frames, whether or not
// a fault profile is active. The one shared template is amortized over
// the sessions.
func TestPerSessionMemory(t *testing.T) {
	const perKind = 8
	pool := NewSlotPool(0)
	profile := fault.Standard(0.1)
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()
	var sessions []*Session
	for i := 0; i < perKind; i++ {
		for _, faulted := range []bool{false, true} {
			cfg := DefaultLinkConfig(2)
			cfg.Seed = int64(300 + 2*i)
			if faulted {
				cfg.Seed++
				cfg.Faults = &profile
			}
			s, err := NewSession(cfg, 0.95, 2)
			if err != nil {
				t.Fatal(err)
			}
			s.Link().SetSlotPool(pool)
			if _, _, err := s.Send(s.Link().RandomPayload(24)); err != nil {
				t.Fatal(err)
			}
			sessions = append(sessions, s)
		}
	}
	after := heapInuse()
	per := (int64(after) - int64(before)) / int64(len(sessions))
	t.Logf("%d sessions: %d B heap in use per session (%d shared templates)", len(sessions), per, pool.Size())
	if per > 64<<10 {
		t.Fatalf("%d B retained per session, want <= 64 KiB", per)
	}
	runtime.KeepAlive(sessions)
}
