package core

import (
	"bytes"
	"fmt"
	"testing"
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
// delivery over a fixed seed range (253 of 270 polls at the time of
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
