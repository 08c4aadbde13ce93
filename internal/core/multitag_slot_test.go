package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"backfi/internal/fault"
)

func slotPayloads(seed int64, slot, tags int) [][]byte {
	out := make([][]byte, tags)
	for k := range out {
		out[k] = []byte(fmt.Sprintf("reading-%d-%d-%d-0123456789abcdef", seed, slot, k))
	}
	return out
}

// The acceptance bar of DESIGN.md §5i: one excitation, >= 2 colliding
// tag reflections, every polled payload delivered — with an unpolled
// impostor backscattering junk into the same slot.
func TestRunSlotJointDeliversCollidedTags(t *testing.T) {
	for seed := int64(1000); seed < 1004; seed++ {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = seed
		s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: 2, Impostor: true})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 3; slot++ {
			pay := slotPayloads(seed, slot, 2)
			res, err := s.SendSlot(pay)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered != 2 {
				t.Fatalf("seed %d slot %d: delivered %d/2 (order %v)", seed, slot, res.Delivered, res.Order)
			}
			for k, pr := range res.Results {
				if !pr.PayloadOK || !bytes.Equal(pr.Decode.Payload, pay[k]) {
					t.Fatalf("seed %d slot %d tag %d: payload mismatch", seed, slot, k)
				}
			}
			// The impostor collided (it is in the decode order) but must
			// never surface as a polled outcome.
			if len(res.Results) != 2 || len(res.Order) != 3 {
				t.Fatalf("seed %d slot %d: results %d order %v", seed, slot, len(res.Results), res.Order)
			}
		}
		if r := s.Stats.DeliveryRate(); r != 1 {
			t.Fatalf("seed %d: delivery rate %v", seed, r)
		}
		if s.Stats.GoodputBps() <= 0 {
			t.Fatalf("seed %d: no goodput", seed)
		}
	}
}

// Three stacked reflections on the default geometric ladder must still
// peel apart. Placement is random per seed and some draws stack the
// layers too closely for every slot to decode, so the bar is aggregate
// delivery over a fixed seed range (258 of 270 polls at the time of
// writing).
func TestRunSlotThreeLayers(t *testing.T) {
	const seeds, slots, tags = 30, 3, 3
	delivered := 0
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = seed
		s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: tags})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < slots; slot++ {
			res, err := s.SendSlot(slotPayloads(seed, slot, tags))
			if err != nil {
				t.Fatal(err)
			}
			delivered += res.Delivered
		}
	}
	polls := seeds * slots * tags
	t.Logf("3-layer slots delivered %d of %d polls", delivered, polls)
	if delivered < polls*85/100 {
		t.Fatalf("3-layer slots delivered %d of %d polls, want >= 85%%", delivered, polls)
	}
}

// A multi-tag session's outcome stream is a pure function of its
// configuration: two sessions fed identical payloads must agree
// result-for-result, including the impostor draws (which are keyed by
// (seed, tag, frame), never shared RNG state).
func TestMultiTagSessionDeterministic(t *testing.T) {
	mk := func() *MultiTagSession {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 77
		s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: 2, Impostor: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for slot := 0; slot < 4; slot++ {
		pay := slotPayloads(77, slot, 2)
		ra, err := a.SendSlot(pay)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.SendSlot(pay)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Delivered != rb.Delivered || len(ra.Order) != len(rb.Order) {
			t.Fatalf("slot %d diverged: %d/%v vs %d/%v", slot, ra.Delivered, ra.Order, rb.Delivered, rb.Order)
		}
		for k := range ra.Results {
			x, y := ra.Results[k], rb.Results[k]
			if x.PayloadOK != y.PayloadOK || x.MeasuredSNRdB != y.MeasuredSNRdB || !bytes.Equal(x.Decode.Payload, y.Decode.Payload) {
				t.Fatalf("slot %d tag %d diverged", slot, k)
			}
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
}

// Every slot reseeds from its index, so slot k's outcome is a pure
// function of (configuration, k): a fresh session whose frame counter
// is set to k plays slot k exactly as a session that played slots
// 0..k-1 first — faulted, with an impostor, whatever earlier slots woke.
func TestMultiTagSlotIndependentOfHistory(t *testing.T) {
	prof := fault.Standard(0.3)
	mk := func() *MultiTagSession {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 88
		cfg.Faults = &prof
		s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: 2, Impostor: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	seq := mk()
	for k := 0; k < 6; k++ {
		want, err := seq.SendSlot(slotPayloads(88, k, 2))
		if err != nil {
			t.Fatal(err)
		}
		alone := mk()
		alone.link.frame = k
		got, err := alone.SendSlot(slotPayloads(88, k, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d alone diverged from slot %d in sequence:\nalone: %+v\nseq:   %+v", k, k, got, want)
		}
	}
}

// Impostor bytes are a pure function of (seed, tag, frame).
func TestImpostorPayloadPure(t *testing.T) {
	a := impostorPayload(9, 3, 14, 32)
	b := impostorPayload(9, 3, 14, 32)
	if !bytes.Equal(a, b) {
		t.Fatal("impostor payload not deterministic")
	}
	if bytes.Equal(a, impostorPayload(9, 3, 15, 32)) {
		t.Fatal("frame does not vary impostor payload")
	}
	if bytes.Equal(a, impostorPayload(9, 4, 14, 32)) {
		t.Fatal("tag ID does not vary impostor payload")
	}
	if bytes.Equal(a, impostorPayload(10, 3, 14, 32)) {
		t.Fatal("seed does not vary impostor payload")
	}
}

// A shared SlotPool must not change outcomes, only amortize excitation
// builds across sessions.
func TestSlotPoolSharingPreservesOutcomes(t *testing.T) {
	run := func(pool *SlotPool) MultiTagStats {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = 123
		s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: 2, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 3; slot++ {
			if _, err := s.SendSlot(slotPayloads(123, slot, 2)); err != nil {
				t.Fatal(err)
			}
		}
		return s.Stats
	}
	pool := NewSlotPool(123)
	a := run(pool)
	if pool.Size() == 0 {
		t.Fatal("pool unused")
	}
	b := run(pool) // second session hits the warm pool
	c := run(nil)  // private excitation path
	if a != b || a != c {
		t.Fatalf("pooled/private outcomes diverge: %+v / %+v / %+v", a, b, c)
	}
}

// goldenMultiTagHash pins the multi-tag pipeline's outcomes: the
// windowed channel simulation, the joint decoder and the addressed
// single-tag decode of Link.Poll. Any change that moves a
// wake verdict, a decoded bit, a CRC verdict, the cancellation order,
// an SNR estimate or the SIC depth moves it.
const goldenMultiTagHash = 0x85c01a41fe899ef0

// TestMultiTagGolden hashes every outcome of 2-tag, 2-tag + impostor,
// 3-tag and faulted 2-tag sessions, plus a round of addressed polls,
// with frame scratch pooled and with fresh buffers per frame: pooled
// scratch must carry nothing from one slot to the next.
func TestMultiTagGolden(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		prev := SetScratchPooling(pooled)
		got, slots := multiTagGoldenHash(t)
		SetScratchPooling(prev)
		if got != goldenMultiTagHash {
			t.Fatalf("pooled=%v: multi-tag golden hash %#x over %d slots, want %#x", pooled, got, slots, uint64(goldenMultiTagHash))
		}
	}
}

func multiTagGoldenHash(t *testing.T) (uint64, int) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putResult := func(pr *PacketResult) {
		if pr == nil {
			put(math.MaxUint64)
			return
		}
		res := pr.Decode
		put(uint64(len(res.Payload)))
		h.Write(res.Payload)
		if res.FrameOK {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(res.SNRdB))
		put(math.Float64bits(pr.SICCancellationDB))
		put(uint64(res.ViterbiCorrectedBits))
	}
	putWoke := func(woke []bool) {
		var bits uint64
		for i, w := range woke {
			if w {
				bits |= 1 << i
			}
		}
		put(bits)
	}
	prof := fault.Standard(0.1)
	slots := 0
	for _, tc := range []struct {
		tags     int
		impostor bool
		faults   *fault.Profile
	}{{2, false, nil}, {2, true, nil}, {3, false, nil}, {2, false, &prof}} {
		for seed := int64(2000); seed < 2004; seed++ {
			cfg := DefaultLinkConfig(1)
			cfg.Seed = seed
			cfg.Faults = tc.faults
			s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: tc.tags, Impostor: tc.impostor})
			if err != nil {
				t.Fatal(err)
			}
			for slot := 0; slot < 6; slot++ {
				res, err := s.SendSlot(slotPayloads(seed, slot, tc.tags))
				if err != nil {
					t.Fatal(err)
				}
				slots++
				put(uint64(res.Delivered))
				putWoke(res.Woke)
				put(uint64(len(res.Order)))
				for _, k := range res.Order {
					put(uint64(k))
				}
				for _, pr := range res.Results {
					putResult(pr)
				}
			}
		}
	}
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 2100
	m, err := NewMultiTagLink(cfg, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for poll := 0; poll < 6; poll++ {
		res, err := m.Poll(poll%3, slotPayloads(2100, poll, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		putWoke(res.Woke)
		putResult(res.Results[0])
	}
	return h.Sum64(), slots
}

// sendSlotSession is the benchmark deployment: two polled tags from
// 2 m on the default ladder, 24 B readings.
func sendSlotSession(tb testing.TB) (*MultiTagSession, [][]byte) {
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 31
	s, err := NewMultiTagSession(MultiTagSessionConfig{Link: cfg, Tags: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return s, [][]byte{[]byte("reading-a-0123456789abcd"), []byte("reading-b-0123456789abcd")}
}

// maxSlotBytes bounds a steady-state slot's heap allocation: its
// results and transmit plans, far below one capture (the windowed
// capture alone is ~6000 samples, ~94 KiB per buffer).
const maxSlotBytes = 64 << 10

// steadyFrameBytes measures the steady state of a pooled-scratch
// pipeline: after three warm-up frames, the heap bytes and allocations
// per frame over each of three windows of 40 frames, keeping the window
// with the fewest bytes. GC is paused so the scratch pool is not drained
// mid-measurement. A single sync.Pool miss (a goroutine moved to a P
// whose pool is empty) builds one fresh frame scratch and inflates only
// the window it falls in, so the minimum reads the steady state.
func steadyFrameBytes(t *testing.T, frame func() error) (bytesPer, allocsPer uint64) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		if err := frame(); err != nil {
			t.Fatal(err)
		}
	}
	const windows, frames = 3, 40
	bytesPer = math.MaxUint64
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			if err := frame(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / frames; b < bytesPer {
			bytesPer, allocsPer = b, (after.Mallocs-before.Mallocs)/frames
		}
	}
	return bytesPer, allocsPer
}

// TestSendSlotSteadyAllocs pins that a multi-tag slot runs in pooled
// frame scratch: once warm, a slot allocates only its results, never a
// waveform-sized buffer.
func TestSendSlotSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	s, pay := sendSlotSession(t)
	perSlot, allocs := steadyFrameBytes(t, func() error {
		_, err := s.SendSlot(pay)
		return err
	})
	t.Logf("%d B, %d allocs per slot", perSlot, allocs)
	if perSlot >= maxSlotBytes {
		t.Fatalf("steady-state slot allocates %d B, want < %d", perSlot, maxSlotBytes)
	}
}

// BenchmarkSendSlot2Tags measures one steady-state 2-tag slot: windowed
// channel simulation plus joint decode. CI checks its B/op against
// maxSlotBytes.
func BenchmarkSendSlot2Tags(b *testing.B) {
	s, pay := sendSlotSession(b)
	if _, err := s.SendSlot(pay); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SendSlot(pay); err != nil {
			b.Fatal(err)
		}
	}
}
