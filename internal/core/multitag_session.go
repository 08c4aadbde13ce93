package core

import (
	"fmt"

	"backfi/internal/fault"
	"backfi/internal/obs"
)

// MultiTagSessionConfig shapes one serving-layer multi-tag session: a
// group of co-located tags lit together and decoded jointly, slot
// after slot (DESIGN.md §5i).
type MultiTagSessionConfig struct {
	// Link is the template configuration; Link.Channel.DistanceM is
	// the nearest tag's range and Link.Seed the session seed.
	Link LinkConfig
	// Tags is the polled group size (every slot carries this many
	// payloads).
	Tags int
	// Impostor adds one extra unpolled tag that shares the group wake:
	// it backscatters junk into every slot and must be absorbed by the
	// joint decoder — the adversarial deployment of the collision
	// matrix tests.
	Impostor bool
	// Spread sets the geometric range ladder of the group: tag k sits
	// at DistanceM·(1+Spread)^k, the impostor one rung past the last
	// member. Successive cancellation needs a power gap between
	// adjacent layers — equal ranges are undecodable jointly — and a
	// geometric ladder gives every layer the same gap. Defaults to 1
	// (each tag twice as far as the previous).
	Spread float64
	// Pool, when set, shares excitation templates with other sessions
	// (copy-on-write session state — see SlotPool).
	Pool *SlotPool
}

// MultiTagStats aggregates a session's slot outcomes.
type MultiTagStats struct {
	// SlotsOffered counts SendSlot calls.
	SlotsOffered int
	// TagsPolled counts tag-frames offered (slots × group size).
	TagsPolled int
	// TagsDelivered counts tag-frames whose payload round-tripped.
	TagsDelivered int
	// PayloadBits counts application bits across delivered tag-frames.
	PayloadBits int
	// AirtimeSec sums slot airtime (the longest member frame per slot).
	AirtimeSec float64
}

// GoodputBps is delivered application throughput per airtime — the
// aggregate multi-tag goodput of the BENCH "serving_multitag" entry.
func (s MultiTagStats) GoodputBps() float64 {
	if s.AirtimeSec == 0 {
		return 0
	}
	return float64(s.PayloadBits) / s.AirtimeSec
}

// DeliveryRate is delivered tag-frames over offered tag-frames.
func (s MultiTagStats) DeliveryRate() float64 {
	if s.TagsPolled == 0 {
		return 0
	}
	return float64(s.TagsDelivered) / float64(s.TagsPolled)
}

// groupWakeID is the wake sequence every session group shares; which
// sequence it is does not matter (they are all balanced 16-bit codes),
// only that group members agree.
const groupWakeID = 0

// MultiTagSession runs a fixed tag group slot by slot. Like Session it
// is confined to one shard goroutine — no internal locking.
type MultiTagSession struct {
	link   Link
	polled []int
	// Stats aggregates outcomes; read it between SendSlot calls.
	Stats MultiTagStats
}

// NewMultiTagSession realizes the deployment: Tags polled tags (plus
// an impostor when configured) spread in range, all sharing one wake
// group.
func NewMultiTagSession(cfg MultiTagSessionConfig) (*MultiTagSession, error) {
	if cfg.Tags < 1 {
		return nil, fmt.Errorf("core: multi-tag session needs >= 1 tags, got %d", cfg.Tags)
	}
	ratio := 1 + cfg.Spread
	if cfg.Spread == 0 {
		ratio = 2
	}
	base := cfg.Link.Channel.DistanceM
	if base <= 0 {
		base = 1
	}
	n := cfg.Tags
	if cfg.Impostor {
		n++
	}
	distances := make([]float64, n)
	d := base
	for k := 0; k < n; k++ {
		// The impostor, when present, is simply the bottom rung: strong
		// enough to collide, weak enough that every polled layer
		// outranks it in the cancellation order.
		distances[k] = d
		d *= ratio
	}
	s := &MultiTagSession{polled: make([]int, cfg.Tags)}
	if err := s.link.init(cfg.Link, distances, 1); err != nil {
		return nil, err
	}
	if err := s.link.SetWakeGroup(groupWakeID); err != nil {
		return nil, err
	}
	if cfg.Pool != nil {
		s.link.SetSlotPool(cfg.Pool)
	}
	for k := range s.polled {
		s.polled[k] = k
	}
	return s, nil
}

// Link exposes the underlying deployment.
func (s *MultiTagSession) Link() *Link { return &s.link }

// Tags is the polled group size — the payload count every SendSlot
// must carry.
func (s *MultiTagSession) Tags() int { return len(s.polled) }

// SetTrace points the next slot's pipeline spans at t.
func (s *MultiTagSession) SetTrace(t obs.TraceCtx) { s.link.SetTrace(t) }

// SetFaultProfile swaps the session's injected fault profile.
func (s *MultiTagSession) SetFaultProfile(p *fault.Profile) error {
	return s.link.SetFaultProfile(p)
}

// SendSlot offers one payload per group tag, runs the slot, and folds
// the outcome into Stats. Exactly one excitation per call — multi-tag
// slots carry no ARQ (a lost tag-frame is the next slot's problem at
// the application layer), so stats stay a pure function of the slot
// stream. Every slot reseeds the link's streams from its slot index,
// the per-attempt schedule Session uses (DESIGN.md §5j): slot k's draws
// are a pure function of (seed, k), whatever earlier slots drew.
func (s *MultiTagSession) SendSlot(payloads [][]byte) (*SlotResult, error) {
	if len(payloads) != len(s.polled) {
		return nil, fmt.Errorf("core: slot carries %d payloads for a %d-tag group", len(payloads), len(s.polled))
	}
	s.link.reseedAttempt(s.link.frame)
	res, err := s.link.RunSlot(s.polled, payloads)
	if err != nil {
		return nil, err
	}
	s.Stats.SlotsOffered++
	s.Stats.TagsPolled += len(s.polled)
	s.Stats.AirtimeSec += res.AirtimeSec
	for k, pr := range res.Results {
		if pr != nil && pr.Delivered {
			s.Stats.TagsDelivered++
			s.Stats.PayloadBits += 8 * len(payloads[k])
		}
	}
	return res, nil
}
