package core

import (
	"fmt"

	"backfi/internal/channel"
	"backfi/internal/dsp"
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
	base *Link
	// frame counts exchanges (RunPacket and RunSlot alike); it keys the
	// impostor payload derivation so junk bytes are a pure function of
	// (link seed, tag ID, frame index) — never of the shared RNG, whose
	// draw schedule must stay identical whatever the wake outcomes.
	frame int
}

// NewMultiTagLink builds a deployment: one tag per distance, with IDs
// 0..n-1 and otherwise identical configuration.
func NewMultiTagLink(cfg LinkConfig, distances []float64) (*MultiTagLink, error) {
	if len(distances) == 0 {
		return nil, fmt.Errorf("core: need at least one tag")
	}
	base, err := NewLink(cfg)
	if err != nil {
		return nil, err
	}
	m := &MultiTagLink{Cfg: cfg, base: base}
	for i, d := range distances {
		tcfg := cfg.Tag
		tcfg.ID = i
		tg, err := tag.New(tcfg)
		if err != nil {
			return nil, err
		}
		chanCfg := cfg.Channel
		chanCfg.DistanceM = d
		sc, err := channel.NewScenario(chanCfg, base.rng)
		if err != nil {
			return nil, err
		}
		m.Tags = append(m.Tags, tg)
		m.Scenarios = append(m.Scenarios, sc)
	}
	return m, nil
}

// SetWakeGroup rebuilds every tag to wake on wakeID's sequence while
// keeping its own PN preamble — the group-wake regime RunSlot decodes
// jointly. Tag configurations and placements are unchanged.
func (m *MultiTagLink) SetWakeGroup(wakeID int) error {
	for i, tg := range m.Tags {
		ng, err := tag.NewWithWake(tg.Cfg, wakeID)
		if err != nil {
			return err
		}
		m.Tags[i] = ng
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

// excitation realizes the wake burst + PPDU train for one exchange
// that wakes tag i and leaves through its scenario's transmitter: the
// shared template from the base link's pool, plus a per-frame air copy
// carrying transmit distortion and front-end faults.
func (m *MultiTagLink) excitation(i, nppdu int) (x, xAir []complex128, packetStart int, err error) {
	sc := m.Scenarios[i]
	x, packetStart, err = m.base.template(m.Tags[i], sc.TxPowerW(), nppdu)
	if err != nil {
		return nil, nil, 0, err
	}
	xAir = sc.Distortion.Apply(x)
	m.base.inj.ApplyFrontEnd(xAir)
	return x, xAir, packetStart, nil
}

// tagNeed is the post-wake sample budget for one tag's frame.
func tagNeed(tcfg tag.Config, payloadBytes int) int {
	return tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadBytes, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
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
// matches backscatter. All active reflections superpose at the AP.
func (m *MultiTagLink) RunPacket(addressed int, payload []byte) (*MultiTagResult, error) {
	if addressed < 0 || addressed >= len(m.Tags) {
		return nil, fmt.Errorf("core: tag index %d out of range", addressed)
	}
	frame := m.frame
	m.frame++
	m.base.m.packets.Inc()
	tgt := m.Tags[addressed]
	nppdu := m.base.sizing(tagNeed(tgt.Cfg, len(payload)))

	// The excitation carries the addressed tag's wake sequence.
	x, xAir, packetStart, err := m.excitation(addressed, nppdu)
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	tspChan := m.base.trace.Start("channel_sim")
	spChan := m.base.m.spanChannelSim.Start()
	res := &MultiTagResult{Addressed: addressed, Woke: make([]bool, len(m.Tags))}

	// An injected wake fault corrupts the burst itself: the addressed
	// tag sleeps through the poll. (Impostors sharing the sequence miss
	// it too — it is the same burst.)
	wakeDropped := m.base.inj.DropWake()
	if wakeDropped {
		m.base.m.failWake.Inc()
	}

	// Every tag sees the excitation through its own forward channel and
	// decides independently whether it was addressed.
	var plan *tag.TxPlan
	total := m.Scenarios[addressed].HEnv.Apply(xAir)
	for i, tg := range m.Tags {
		sc := m.Scenarios[i]
		z := sc.HF.Apply(xAir)
		_, woke := tg.TryWake(z[:packetStart+tag.SilentSamples])
		woke = woke && !wakeDropped
		res.Woke[i] = woke
		if !woke {
			continue
		}
		// A woken tag backscatters its own frame. The addressed tag
		// sends the caller's payload; an impostor (same wake sequence)
		// sends junk derived from (seed, its ID, frame index).
		body := payload
		if i != addressed {
			body = impostorPayload(m.Cfg.Seed, tg.Cfg.ID, frame, len(payload))
		}
		mSeq, p, err := tg.ModulationSequence(packetLen, body)
		if err != nil {
			return nil, err
		}
		if i == addressed {
			plan = p
			// Tag-side faults follow the addressed tag, as on the
			// single-tag link.
			m.base.inj.ApplyTagPhaseNoise(mSeq)
			m.base.inj.CorruptPreamble(mSeq, p.SilentEnd, tg.Cfg.PreambleChips, tag.ChipSamples)
		}
		mFull := make([]complex128, len(x))
		copy(mFull[packetStart:], mSeq)
		total = dsp.Add(total, sc.HB.Apply(tag.Backscatter(z, mFull)))
	}
	y := m.Scenarios[addressed].Noise.Add(total)
	m.base.inj.AddInterference(y)
	m.base.inj.ApplyADC(y)
	m.base.inj.TruncateTail(y, packetStart, packetLen)
	spChan.End()
	tspChan.End()

	tspDec := m.base.trace.Start("decode_total")
	spDec := m.base.m.spanDecode.Start()
	dec, err := m.base.rdr.Decode(x, xAir, y, packetStart, packetLen, tgt.Cfg)
	spDec.End()
	tspDec.End()
	if err != nil {
		return nil, err
	}
	pr := &PacketResult{
		Decode:            dec,
		Sent:              payload,
		PayloadOK:         dec.FrameOK && bytesEqual(dec.Payload, payload),
		ExcitationSamples: packetLen,
		ExpectedSNRdB:     m.Scenarios[addressed].ExpectedSNRdB(),
		MeasuredSNRdB:     dec.SNRdB,
	}
	pr.Delivered = pr.PayloadOK
	if plan != nil {
		pr.TagAirtimeSec = float64(plan.End()-plan.SilentEnd) / tag.SampleRate
	}
	pr.liftDiagnostics(dec)
	m.base.observeResult(pr)
	res.Result = pr
	return res, nil
}

// SlotResult reports one group slot decoded jointly.
type SlotResult struct {
	// Polled lists the tag indices the slot lit (the MAC group).
	Polled []int
	// Woke[i] reports tag i's detector outcome (all tags, not just the
	// polled ones — unpolled tags sharing the group wake are the
	// impostor interferers).
	Woke []bool
	// Results[k] is Polled[k]'s decode outcome; nil when the joint
	// decoder could not even estimate that tag's channel.
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
// interference; they are never decoded.
func (m *MultiTagLink) RunSlot(polled []int, payloads [][]byte) (*SlotResult, error) {
	if len(polled) == 0 || len(polled) != len(payloads) {
		return nil, fmt.Errorf("core: RunSlot needs matching polled/payloads, got %d/%d", len(polled), len(payloads))
	}
	inGroup := make(map[int]int, len(polled))
	need := 0
	for k, i := range polled {
		if i < 0 || i >= len(m.Tags) {
			return nil, fmt.Errorf("core: tag index %d out of range", i)
		}
		if _, dup := inGroup[i]; dup {
			return nil, fmt.Errorf("core: tag %d polled twice in one slot", i)
		}
		inGroup[i] = k
		if n := tagNeed(m.Tags[i].Cfg, len(payloads[k])); n > need {
			need = n
		}
	}
	frame := m.frame
	m.frame++
	m.base.m.packets.Inc()
	lead := polled[0]
	nppdu := m.base.sizing(need)

	x, xAir, packetStart, err := m.excitation(lead, nppdu)
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	tspChan := m.base.trace.Start("channel_sim")
	spChan := m.base.m.spanChannelSim.Start()
	res := &SlotResult{
		Polled:  append([]int(nil), polled...),
		Woke:    make([]bool, len(m.Tags)),
		Results: make([]*PacketResult, len(polled)),
	}
	wakeDropped := m.base.inj.DropWake()
	if wakeDropped {
		m.base.m.failWake.Inc()
	}
	plans := make([]*tag.TxPlan, len(polled))
	total := m.Scenarios[lead].HEnv.Apply(xAir)
	for i, tg := range m.Tags {
		sc := m.Scenarios[i]
		z := sc.HF.Apply(xAir)
		_, woke := tg.TryWake(z[:packetStart+tag.SilentSamples])
		woke = woke && !wakeDropped
		res.Woke[i] = woke
		if !woke {
			continue
		}
		k, isPolled := inGroup[i]
		var body []byte
		if isPolled {
			body = payloads[k]
		} else {
			body = impostorPayload(m.Cfg.Seed, tg.Cfg.ID, frame, len(payloads[0]))
		}
		mSeq, p, err := tg.ModulationSequence(packetLen, body)
		if err != nil {
			return nil, err
		}
		if isPolled {
			plans[k] = p
			m.base.inj.ApplyTagPhaseNoise(mSeq)
			m.base.inj.CorruptPreamble(mSeq, p.SilentEnd, tg.Cfg.PreambleChips, tag.ChipSamples)
		}
		mFull := make([]complex128, len(x))
		copy(mFull[packetStart:], mSeq)
		total = dsp.Add(total, sc.HB.Apply(tag.Backscatter(z, mFull)))
	}
	y := m.Scenarios[lead].Noise.Add(total)
	m.base.inj.AddInterference(y)
	m.base.inj.ApplyADC(y)
	m.base.inj.TruncateTail(y, packetStart, packetLen)
	spChan.End()
	tspChan.End()

	// The reader decodes every provisioned member of the wake group,
	// not just the polled subset: an unpolled member that woke (an
	// impostor) is still a known PN the successive canceller can peel
	// off, which is what keeps the polled layers decodable underneath
	// it. Only polled outcomes are reported.
	cfgs := make([]tag.Config, len(polled), len(m.Tags))
	for k, i := range polled {
		cfgs[k] = m.Tags[i].Cfg
	}
	for i, tg := range m.Tags {
		if _, isPolled := inGroup[i]; !isPolled && tg.WakeID() == m.Tags[lead].WakeID() {
			cfgs = append(cfgs, tg.Cfg)
		}
	}
	tspDec := m.base.trace.Start("decode_total")
	spDec := m.base.m.spanDecode.Start()
	jr, err := m.base.rdr.DecodeJoint(x, xAir, y, packetStart, packetLen, cfgs)
	spDec.End()
	tspDec.End()
	if err != nil {
		return nil, err
	}
	res.Order = jr.Order
	for k, i := range polled {
		dec := jr.Tags[k]
		if dec == nil {
			continue
		}
		pr := &PacketResult{
			Decode:            dec,
			Sent:              payloads[k],
			PayloadOK:         dec.FrameOK && bytesEqual(dec.Payload, payloads[k]),
			ExcitationSamples: packetLen,
			ExpectedSNRdB:     m.Scenarios[i].ExpectedSNRdB(),
			MeasuredSNRdB:     dec.SNRdB,
		}
		pr.Delivered = pr.PayloadOK
		if plans[k] != nil {
			pr.TagAirtimeSec = float64(plans[k].End()-plans[k].SilentEnd) / tag.SampleRate
			if pr.TagAirtimeSec > res.AirtimeSec {
				res.AirtimeSec = pr.TagAirtimeSec
			}
		}
		pr.liftDiagnostics(dec)
		m.base.observeResult(pr)
		res.Results[k] = pr
		if pr.Delivered {
			res.Delivered++
		}
	}
	return res, nil
}
