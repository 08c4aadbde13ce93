package core

import (
	"errors"
	"fmt"
	"slices"

	"backfi/internal/channel"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// Multi-tag deployments (paper Sec. 4.1: "a preamble can be unique to
// a particular BackFi tag ... and can be used to select which BackFi
// tag gets to backscatter at that instant"). A MultiTagLink places
// several tags around one AP. Two polling regimes:
//
//   - RunPacket addresses ONE tag by its wake sequence — the paper's
//     original arbitration. Correctly-behaving unaddressed tags stay
//     asleep; a misconfigured tag sharing the addressed tag's wake
//     sequence backscatters concurrently and collides.
//   - RunSlot lights a GROUP that shares a wake sequence (SetWakeGroup
//     plus mac.TagMAC arbitration) and decodes the colliding reflections
//     jointly by successive cancellation (DESIGN.md §5i).
//
// Both regimes run through the same fault-injected, traced, metered
// machinery as the single-tag Link — the base link below carries the
// injector, trace context, metrics, and RNG — so injected impairments
// and spans show up in multi-tag results exactly as they do in
// single-tag ones.
type MultiTagLink struct {
	Cfg LinkConfig
	// Tags and their independent placements; Tags[i] sits at
	// Distances[i].
	Tags      []*tag.Tag
	Scenarios []*channel.Scenario
	// base carries the shared per-link machinery: rng, rate, reader,
	// excitation pool, fault injector, metrics, and trace context.
	base Link
	// frame counts exchanges (RunPacket and RunSlot alike); it keys the
	// impostor payload derivation so junk bytes are a pure function of
	// (link seed, tag ID, frame index) — never of the shared RNG — and
	// MultiTagSession reseeds the shared streams from it every slot.
	frame int
}

// NewMultiTagLink builds a deployment: one tag per distance, with IDs
// 0..n-1 and otherwise identical configuration.
func NewMultiTagLink(cfg LinkConfig, distances []float64) (*MultiTagLink, error) {
	m := new(MultiTagLink)
	if err := m.init(cfg, distances); err != nil {
		return nil, err
	}
	return m, nil
}

// init builds the deployment in place. A deployment keeps its tags and
// placements for life, so they share one array: a serving session's
// state stays in a few dense allocations instead of a dozen small
// ones scattered among each frame's temporaries.
func (m *MultiTagLink) init(cfg LinkConfig, distances []float64) error {
	if len(distances) == 0 {
		return fmt.Errorf("core: need at least one tag")
	}
	if err := m.base.init(cfg); err != nil {
		return err
	}
	// The members' placements override only the distance; the rest of
	// the channel template must be valid as given.
	if err := cfg.Channel.Validate(); err != nil {
		return err
	}
	m.Cfg = cfg
	members := make([]struct {
		tag tag.Tag
		sc  channel.Scenario
	}, len(distances))
	m.Tags = make([]*tag.Tag, len(distances))
	m.Scenarios = make([]*channel.Scenario, len(distances))
	for i, d := range distances {
		tcfg := cfg.Tag
		tcfg.ID = i
		tg, err := tag.New(tcfg)
		if err != nil {
			return err
		}
		chanCfg := cfg.Channel
		chanCfg.DistanceM = d
		sc, err := channel.NewScenario(chanCfg, m.base.rng, m.base.src)
		if err != nil {
			return err
		}
		members[i].tag, members[i].sc = *tg, *sc
		m.Tags[i], m.Scenarios[i] = &members[i].tag, &members[i].sc
	}
	return nil
}

// SetWakeGroup rebuilds every tag in place to wake on wakeID's
// sequence while keeping its own PN preamble — the group-wake regime
// RunSlot decodes jointly. Tag configurations and placements are
// unchanged.
func (m *MultiTagLink) SetWakeGroup(wakeID int) error {
	for _, tg := range m.Tags {
		ng, err := tag.NewWithWake(tg.Cfg, wakeID)
		if err != nil {
			return err
		}
		*tg = *ng
	}
	return nil
}

// SetSlotPool shares excitation templates with other links (sessions)
// holding the same pool (see Link.SetSlotPool).
func (m *MultiTagLink) SetSlotPool(p *SlotPool) { m.base.SetSlotPool(p) }

// SetTrace points subsequent exchanges at the per-frame trace context,
// exactly as Link.SetTrace does.
func (m *MultiTagLink) SetTrace(t obs.TraceCtx) { m.base.SetTrace(t) }

// SetFaultProfile swaps the link's injected fault profile (see
// Link.SetFaultProfile for the reseeding contract).
func (m *MultiTagLink) SetFaultProfile(p *fault.Profile) error {
	if err := m.base.SetFaultProfile(p); err != nil {
		return err
	}
	m.Cfg.Faults = m.base.Cfg.Faults
	return nil
}

// impostorPayload derives the junk frame an impostor backscatters as a
// pure function of (link seed, tag ID, frame index). The shared link
// RNG is deliberately not involved: whether an impostor wakes must
// never shift any other draw in the session's schedule, or decode
// streams would diverge across wake outcomes and worker counts.
func impostorPayload(seed int64, tagID, frame, n int) []byte {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for _, v := range [...]uint64{uint64(tagID), uint64(frame)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= 1099511628211
		}
	}
	body := make([]byte, n)
	rng.New(int64(h)).Read(body)
	return body
}

// tagNeed is the post-wake sample budget for one tag's frame.
func tagNeed(tcfg tag.Config, payloadBytes int) int {
	return tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadBytes, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
}

// capture runs the channel half of RunPacket and RunSlot through the
// base link's capture: one excitation that wakes polled[0]'s wake group
// and leaves through its placement, every tag deciding from its own
// forward channel whether it woke. polled[k] backscatters payloads[k];
// any other tag that wakes is an impostor.
//
// The burst is sized for the polled frames; the window also covers the
// frame any other tag would send if it woke (an impostor's junk is as
// long as the first payload), plus a symbol and the timing slack.
func (m *MultiTagLink) capture(fs *frameScratch, polled []int, payloads [][]byte) (*burst, error) {
	need, hiNeed, sps := 0, 0, 0
	for i, tg := range m.Tags {
		k := slices.Index(polled, i)
		if k < 0 {
			hiNeed = max(hiNeed, tagNeed(tg.Cfg, len(payloads[0])))
		} else {
			need = max(need, tagNeed(tg.Cfg, len(payloads[k])))
		}
		sps = max(sps, tg.Cfg.SamplesPerSymbol())
	}
	hiNeed = max(hiNeed, need)
	frame := m.frame
	m.frame++
	x, packetStart, err := m.base.template(m.Tags[polled[0]], m.Scenarios[polled[0]].TxPowerW(), m.base.sizing(need))
	if err != nil {
		return nil, err
	}
	b := &burst{
		x:           x[:min(packetStart+hiNeed+sps+windowSlack, len(x))],
		packetStart: packetStart,
		packetLen:   len(x) - packetStart,
		tags:        m.Tags,
		scs:         m.Scenarios,
		polled:      polled,
		payloads:    payloads,
		frame:       frame,
	}
	return b, m.base.capture(fs, b)
}

// MultiTagResult reports one addressed exchange.
type MultiTagResult struct {
	// Addressed is the polled tag index.
	Addressed int
	// Woke[i] reports whether tag i's detector fired on this wake
	// preamble.
	Woke []bool
	// Result is the decode outcome for the addressed tag.
	Result *PacketResult
}

// RunPacket polls one tag: the AP transmits that tag's wake sequence,
// every tag's detector inspects it, and only tags whose correlator
// matches backscatter. All active reflections superpose at the AP,
// which decodes the addressed tag alone, as a single-tag link does.
// When no tag wakes the error wraps ErrTagNoWake, as Link.RunPacket's
// does.
func (m *MultiTagLink) RunPacket(addressed int, payload []byte) (*MultiTagResult, error) {
	if addressed < 0 || addressed >= len(m.Tags) {
		return nil, fmt.Errorf("core: tag index %d out of range", addressed)
	}
	fs := getScratch()
	defer putScratch(fs)
	b, err := m.capture(fs, []int{addressed}, [][]byte{payload})
	if err != nil {
		return nil, err
	}
	tcfg := m.Tags[addressed].Cfg
	dec, err := m.base.decodeTag(fs, b, tcfg)
	if err != nil {
		return nil, err
	}
	pr := m.base.result(m.Scenarios[addressed], tcfg, dec, payload, b.packetLen, b.plans[0])
	return &MultiTagResult{Addressed: addressed, Woke: b.woke, Result: pr}, nil
}

// SlotResult reports one group slot decoded jointly.
type SlotResult struct {
	// Polled lists the tag indices the slot lit (the MAC group).
	Polled []int
	// Woke[i] reports tag i's detector outcome (all tags, not just the
	// polled ones — unpolled tags sharing the group wake are the
	// impostor interferers).
	Woke []bool
	// Results[k] is Polled[k]'s decode outcome; nil when the decoder
	// could not attempt that tag (no room for its frame, or an unusable
	// channel fit).
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
// interference; they are never decoded. A slot no tag woke for returns
// an empty result: nothing delivered, nothing decoded.
func (m *MultiTagLink) RunSlot(polled []int, payloads [][]byte) (*SlotResult, error) {
	if len(polled) == 0 || len(polled) != len(payloads) {
		return nil, fmt.Errorf("core: RunSlot needs matching polled/payloads, got %d/%d", len(polled), len(payloads))
	}
	for k, i := range polled {
		if i < 0 || i >= len(m.Tags) {
			return nil, fmt.Errorf("core: tag index %d out of range", i)
		}
		if slices.Index(polled[:k], i) >= 0 {
			return nil, fmt.Errorf("core: tag %d polled twice in one slot", i)
		}
	}
	fs := getScratch()
	defer putScratch(fs)
	b, err := m.capture(fs, polled, payloads)
	if err != nil && !errors.Is(err, ErrTagNoWake) {
		return nil, err
	}
	res := &SlotResult{
		Polled:  slices.Clone(polled),
		Woke:    b.woke,
		Results: make([]*PacketResult, len(polled)),
	}
	if err != nil {
		// No tag woke: the slot delivered nothing.
		return res, nil
	}

	// The reader decodes every provisioned member of the wake group,
	// not just the polled subset: an unpolled member that woke (an
	// impostor) is still a known PN the successive canceller can peel
	// off, which is what keeps the polled layers decodable underneath
	// it. Only polled outcomes are reported.
	cfgs := make([]tag.Config, len(polled), len(m.Tags))
	for k, i := range polled {
		cfgs[k] = m.Tags[i].Cfg
	}
	wake := m.Tags[polled[0]].WakeID()
	for i, tg := range m.Tags {
		if slices.Index(polled, i) < 0 && tg.WakeID() == wake {
			cfgs = append(cfgs, tg.Cfg)
		}
	}
	dec, err := m.base.decode(fs, b, cfgs)
	if err != nil {
		return nil, err
	}
	res.Order = dec.Order
	for k, i := range polled {
		layer := dec.Tags[k]
		if layer == nil {
			continue
		}
		pr := m.base.result(m.Scenarios[i], m.Tags[i].Cfg, layer, payloads[k], b.packetLen, b.plans[k])
		res.AirtimeSec = max(res.AirtimeSec, pr.TagAirtimeSec)
		res.Results[k] = pr
		if pr.Delivered {
			res.Delivered++
		}
	}
	return res, nil
}
