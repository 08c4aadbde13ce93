package core

import (
	"fmt"
	"slices"

	"backfi/internal/rng"
	"backfi/internal/tag"
)

// SetWakeGroup rebuilds every tag in place to wake on wakeID's
// sequence while keeping its own PN preamble — the group-wake regime
// RunSlot decodes jointly. Tag configurations and placements are
// unchanged.
func (l *Link) SetWakeGroup(wakeID int) error {
	for _, tg := range l.Tags {
		ng, err := tag.NewWithWake(tg.Cfg, wakeID)
		if err != nil {
			return err
		}
		*tg = *ng
	}
	return nil
}

// impostorPayload derives the junk frame an impostor backscatters as a
// pure function of (link seed, tag ID, frame index). The shared link
// RNG is deliberately not involved: whether an impostor wakes must
// never shift any other draw in the session's schedule, or decode
// streams would diverge across wake outcomes and worker counts.
func impostorPayload(seed int64, tagID, frame, n int) []byte {
	body := make([]byte, n)
	rng.New(rng.Mix(rng.Mix(seed, tagID), frame)).Read(body)
	return body
}

// tagNeed is the post-wake sample budget for one tag's frame.
func tagNeed(tcfg tag.Config, payloadBytes int) int {
	return tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadBytes, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
}

// Poll addresses tag i by its wake sequence — the paper's original
// arbitration. Every tag's detector inspects the sequence and only tags
// whose correlator matches backscatter: correctly-behaving unaddressed
// tags stay asleep, while a misconfigured tag sharing i's wake sequence
// backscatters concurrently and collides. All active reflections
// superpose at the AP, which decodes tag i alone. When no tag wakes the
// error wraps ErrTagNoWake, as RunPacket's does.
func (l *Link) Poll(i int, payload []byte) (*SlotResult, error) {
	if i < 0 || i >= len(l.Tags) {
		return nil, fmt.Errorf("core: tag index %d out of range", i)
	}
	return l.exchange(nil, 0, []int{i}, [][]byte{payload}, false)
}

// SlotResult reports one exchange of a deployment: a group slot decoded
// jointly (RunSlot) or an addressed poll (Poll).
type SlotResult struct {
	// Polled lists the tag indices the slot lit (the MAC group).
	Polled []int
	// Woke[i] reports tag i's detector outcome (all tags, not just the
	// polled ones — unpolled tags sharing the group wake are the
	// impostor interferers).
	Woke []bool
	// Results[k] is Polled[k]'s decode outcome; in a slot, nil when the
	// decoder could not attempt that tag (no room for its frame, or an
	// unusable channel fit).
	Results []*PacketResult
	// Order lists decode positions in cancellation order. Entries
	// < len(Polled) index into Polled; larger entries are unpolled
	// wake-group members (impostors) the joint decoder cancelled on
	// the way down.
	Order []int
	// Delivered counts polled tags whose payload round-tripped.
	Delivered int
	// AirtimeSec is the slot's tag airtime (the longest member frame).
	AirtimeSec float64
}

// RunSlot lights every tag in polled with one excitation (they must
// share a wake group — SetWakeGroup) and decodes the colliding
// reflections by joint successive cancellation. payloads[k] is what
// Polled[k] backscatters. Unpolled tags that wake on the group
// sequence backscatter impostor junk and are cancelled or absorbed as
// interference; they are never reported. A slot no tag woke for returns
// an empty result: nothing delivered, nothing decoded.
func (l *Link) RunSlot(polled []int, payloads [][]byte) (*SlotResult, error) {
	if len(polled) == 0 || len(polled) != len(payloads) {
		return nil, fmt.Errorf("core: RunSlot needs matching polled/payloads, got %d/%d", len(polled), len(payloads))
	}
	for k, i := range polled {
		if i < 0 || i >= len(l.Tags) {
			return nil, fmt.Errorf("core: tag index %d out of range", i)
		}
		if slices.Index(polled[:k], i) >= 0 {
			return nil, fmt.Errorf("core: tag %d polled twice in one slot", i)
		}
	}
	return l.exchange(nil, 0, polled, payloads, true)
}
