// Package core wires the BackFi system together: the WiFi AP's
// excitation transmission, the propagation scenario, the tag's wake-up
// and backscatter modulation, self-interference cancellation, and the
// MRC decoder. It exposes a per-packet link simulator plus the rate
// adaptation used by the paper's evaluation (pick the minimum-REPB
// configuration that decodes at the operating SNR).
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/reader"
	"backfi/internal/rng"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// ErrTagNoWake is the expected outcome of a placement outside detector
// range: the tag failed to wake (or woke off-time, which the protocol
// treats the same way). Monte-Carlo evaluation counts it as zero
// throughput instead of aborting; check with errors.Is. Every other
// RunPacket error is a genuine pipeline failure and propagates.
var ErrTagNoWake = errors.New("core: tag did not wake")

// LinkConfig assembles one BackFi link.
type LinkConfig struct {
	// Channel is the placement/propagation model.
	Channel channel.Config
	// Tag is the tag's transmission configuration.
	Tag tag.Config
	// Reader is the AP decoder configuration.
	Reader reader.Config
	// WiFiMbps is the excitation packet bitrate (paper: 24 Mbps).
	WiFiMbps int
	// WiFiPSDUBytes is the excitation PSDU size per PPDU.
	WiFiPSDUBytes int
	// Seed drives all randomness (placement, noise, payloads).
	Seed int64
	// Faults selects the RF impairments and packet-level faults injected
	// into the link (DESIGN.md §5d). Nil (or an all-zero profile) leaves
	// the pipeline bit-identical to an unfaulted build: the injector
	// draws from its own seeded RNG, so the placement/noise/payload
	// streams never shift.
	Faults *fault.Profile
	// Obs receives the link's pipeline metrics (per-stage spans, packet
	// and failure counters, SNR/BER histograms). Nil disables
	// instrumentation at zero cost; metrics never feed back into the
	// simulation, so results are identical with or without a registry.
	// NewLink propagates the registry into the reader and SIC configs
	// unless those carry their own.
	Obs *obs.Registry
	// SessionCache is kept only so configurations written against
	// earlier builds still compile; it has no effect. Every exchange
	// now runs the one windowed pipeline over a shared excitation
	// template (DESIGN.md §5g).
	SessionCache bool
}

// DefaultLinkConfig returns the paper's standard operating point at the
// given AP–tag distance: 24 Mbps excitation packets, QPSK 1/2 tag at
// 1 Msym/s.
func DefaultLinkConfig(distanceM float64) LinkConfig {
	return LinkConfig{
		Channel: channel.DefaultConfig(distanceM),
		Tag: tag.Config{
			Mod:           tag.QPSK,
			Coding:        fec.Rate12,
			SymbolRateHz:  1e6,
			PreambleChips: tag.DefaultPreambleChips,
			ID:            1,
		},
		Reader:        reader.DefaultConfig(),
		WiFiMbps:      24,
		WiFiPSDUBytes: 1500,
		Seed:          1,
	}
}

// PacketResult reports one end-to-end packet exchange.
type PacketResult struct {
	// Decode is the reader's output.
	Decode *reader.Result
	// Sent is the payload the tag transmitted.
	Sent []byte
	// PayloadOK reports whether the decoded payload matched exactly.
	PayloadOK bool
	// Delivered reports whether the exchange completed end to end. For
	// a one-shot RunPacket it equals PayloadOK; the session ARQ layer
	// clears it when the reader decoded the frame but the ACK back to
	// the tag was lost, so PayloadOK can be true while Delivered is
	// false. Goodput consumers must key off Delivered — counting
	// PayloadOK double-counts ACK-dropped frames the tag retransmits.
	Delivered bool
	// RawBitErrors / RawBits count pre-FEC coded-bit errors (hard
	// decisions on the MRC symbol estimates vs the transmitted coded
	// bits) — the BER axis of paper Fig. 11b.
	RawBitErrors, RawBits int
	// ExpectedSNRdB is the oracle (VNA-style) per-sample backscatter
	// SNR from the true channels against thermal noise alone.
	ExpectedSNRdB float64
	// ExpectedMRCSNRdB is the paper Fig. 11a x-axis: the oracle
	// backscatter power over the receiver's *measured*
	// post-cancellation floor (thermal noise + SI residue, as a VNA
	// plus a floor measurement would predict), plus the MRC combining
	// gain. Measured − expected is then the decoder's own loss.
	ExpectedMRCSNRdB float64
	// MeasuredSNRdB is the decoder's post-MRC symbol SNR — Fig. 11a's
	// y-axis (compare with ExpectedMRCSNRdB).
	MeasuredSNRdB float64
	// ExcitationSamples is the excitation length used.
	ExcitationSamples int
	// TagAirtimeSec is the tag's active modulation time.
	TagAirtimeSec float64

	// Per-stage diagnostics, lifted out of Decode so callers read them
	// directly instead of re-deriving them from the reader's report:

	// SICBeforeDBm / SICResidualDBm bracket the canceller: received
	// self-interference power and the post-cancellation floor over the
	// training window. SICCancellationDB is their difference — the
	// paper's ≈78–80 dB Fig. 7 quantity.
	SICBeforeDBm, SICResidualDBm, SICCancellationDB float64
	// SyncOffsetSamples is the symbol-timing correction the PN
	// preamble search applied relative to protocol timing.
	SyncOffsetSamples int
	// PreambleCorr is the normalized tag-preamble correlation
	// (1 = perfect).
	PreambleCorr float64
	// ViterbiCorrectedBits counts coded bits the Viterbi decoder fixed
	// inside the frame (receiver-side; no ground truth needed).
	ViterbiCorrectedBits int
}

// RawBER returns the pre-FEC bit error rate.
func (p *PacketResult) RawBER() float64 {
	if p.RawBits == 0 {
		return 0
	}
	return float64(p.RawBitErrors) / float64(p.RawBits)
}

// liftDiagnostics copies the reader's per-stage report into the
// result's flat diagnostic fields.
func (p *PacketResult) liftDiagnostics(res *reader.Result) {
	p.SICBeforeDBm = res.SIC.BeforeDBm
	p.SICResidualDBm = res.SIC.AfterDBm
	p.SICCancellationDB = res.SIC.CancellationDB
	p.SyncOffsetSamples = res.TimingOffset
	p.PreambleCorr = res.PreambleCorr
	p.ViterbiCorrectedBits = res.ViterbiCorrectedBits
}

// linkMetrics holds the link's instrument handles, resolved once at
// NewLink so RunPacket does no registry lookups. All fields are nil
// (no-op) when metrics are disabled.
type linkMetrics struct {
	spanExcitation *obs.Histogram
	spanChannelSim *obs.Histogram
	spanDecode     *obs.Histogram
	packets        *obs.Counter
	packetsOK      *obs.Counter
	failWake       *obs.Counter
	failWakeTiming *obs.Counter
	rawBER         *obs.Histogram
	snrExpected    *obs.Histogram
	snrExpectedMRC *obs.Histogram
	snrMeasured    *obs.Histogram
	cacheHit       *obs.Counter
	cacheMiss      *obs.Counter
}

func newLinkMetrics(r *obs.Registry) linkMetrics {
	if r == nil {
		return linkMetrics{}
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram(obs.MetricStageDuration, obs.HelpStageDuration, obs.DurationBuckets, "stage", name)
	}
	snr := func(kind string) *obs.Histogram {
		return r.Histogram(obs.MetricSNR, "Per-packet SNR in dB.", obs.DBBuckets, "kind", kind)
	}
	return linkMetrics{
		spanExcitation: stage("excitation_build"),
		spanChannelSim: stage("channel_sim"),
		spanDecode:     stage("decode_total"),
		packets:        r.Counter(obs.MetricPackets, "Packet exchanges attempted."),
		packetsOK:      r.Counter(obs.MetricPacketsOK, "Packets whose decoded payload matched exactly."),
		failWake:       r.Counter(obs.MetricStageFailures, "Decode aborts and frame failures by pipeline stage.", "stage", "wake"),
		failWakeTiming: r.Counter(obs.MetricStageFailures, "Decode aborts and frame failures by pipeline stage.", "stage", "wake_timing"),
		rawBER:         r.Histogram(obs.MetricRawBER, "Per-packet pre-FEC coded-bit error rate.", obs.BERBuckets),
		snrExpected:    snr("expected"),
		snrExpectedMRC: snr("expected_mrc"),
		snrMeasured:    snr("measured"),
		cacheHit:       r.Counter(obs.MetricLinkCache, "Excitation-template pool lookups, by outcome.", "outcome", "hit"),
		cacheMiss:      r.Counter(obs.MetricLinkCache, "Excitation-template pool lookups, by outcome.", "outcome", "miss"),
	}
}

// Link is a realized BackFi deployment: K tag placements around one AP
// with N receive chains, plus the reader and the per-link machinery
// (RNG streams, fault injector, metrics, excitation pool). NewLink
// builds one tag on one chain, NewMIMOLink one tag on N chains and
// NewMultiTagLink K tags on one chain; every exchange runs the same
// K×N pipeline.
type Link struct {
	Cfg LinkConfig
	// Tags[i] sits at placement Scenarios[i]. A deployment keeps its
	// tags and placements for life, so they share one allocation.
	Tags      []*tag.Tag
	Scenarios []*channel.Scenario
	// Tag and Scenario are placement 0 (Tags[0], Scenarios[0]): the tag
	// RunPacket, RunCustomExcitation and a Session drive.
	Tag      *tag.Tag
	Scenario *channel.Scenario
	rdr      reader.Reader
	rng      *rand.Rand
	src      *rng.Source // rng's Source: noise and distortion draws
	inj      *fault.Injector
	rate     wifi.Rate
	m        linkMetrics
	// pool memoizes excitation templates: private to the link (one
	// template retained, built on first use) unless SetSlotPool shares
	// a pool.
	pool *SlotPool
	// faultEpoch counts SetFaultProfile calls; it salts each new
	// injector's base seed (faultBase) so successive profiles draw
	// decorrelated streams.
	faultEpoch int
	// trace is the per-frame trace context (DESIGN.md §5h); the serving
	// layer reassigns it before each RunPacket. Zero = tracing off.
	trace obs.TraceCtx
	// chains holds the AP's receive chains past the first (NewMIMOLink);
	// chain 0 is the placements' own draw.
	chains []rxChain
	// frame counts exchanges; it keys the impostor payload derivation so
	// junk bytes are a pure function of (link seed, tag ID, frame index)
	// — never of the shared RNG — and MultiTagSession reseeds the shared
	// streams from it every slot.
	frame int
}

// rxChain is one extra AP receive antenna: its own self-interference
// channel, and HB[i], placement i's backward channel into it.
type rxChain struct {
	HEnv channel.Taps
	HB   []channel.Taps
}

// SetTrace points the next RunPacket at a per-frame trace context and
// propagates it down the pipeline (reader stages, SIC training). The
// zero TraceCtx disables tracing; reassignment is two word copies, so
// per-frame switching costs nothing. Tracing never feeds back into the
// computation — the decode byte stream is identical traced or not.
func (l *Link) SetTrace(t obs.TraceCtx) {
	l.trace = t
	l.rdr.SetTrace(t)
}

// faultSeedSalt decorrelates the injector's RNG stream from the link's
// main stream, which is seeded with cfg.Seed directly.
const faultSeedSalt = 0x5fa017

// faultBase is the injector's base seed at a fault epoch; a session
// mixes the attempt ordinal into it per attempt.
func faultBase(seed int64, epoch int) int64 { return seed ^ faultSeedSalt + int64(epoch)*15485863 }

// NewLink draws a placement realization and builds the endpoints.
func NewLink(cfg LinkConfig) (*Link, error) { return newLink(cfg, nil, 1) }

// NewMIMOLink draws a placement whose AP has nrx receive antennas
// (paper Sec. 7: "multiple antennas at the AP provides additional
// diversity combining gain"). The AP transmits from one antenna and
// every antenna receives; each chain cancels self-interference against
// the shared transmission (one silent period serves every chain, since
// only one antenna transmits), and the per-symbol MRC combines across
// antennas as well as samples. With nrx = 1 it is NewLink.
func NewMIMOLink(cfg LinkConfig, nrx int) (*Link, error) {
	if nrx < 1 {
		return nil, fmt.Errorf("core: need at least one receive antenna")
	}
	return newLink(cfg, nil, nrx)
}

// NewMultiTagLink builds a deployment: one tag per distance, with IDs
// 0..n-1 and otherwise identical configuration (paper Sec. 4.1: "a
// preamble can be unique to a particular BackFi tag ... and can be used
// to select which BackFi tag gets to backscatter at that instant").
// Poll addresses one tag by its wake sequence; RunSlot lights a group
// sharing one (SetWakeGroup) and decodes the collided reflections
// jointly (DESIGN.md §5i).
func NewMultiTagLink(cfg LinkConfig, distances []float64) (*Link, error) {
	if len(distances) == 0 {
		return nil, fmt.Errorf("core: need at least one tag")
	}
	return newLink(cfg, distances, 1)
}

func newLink(cfg LinkConfig, distances []float64, nrx int) (*Link, error) {
	l := new(Link)
	if err := l.init(cfg, distances, nrx); err != nil {
		return nil, err
	}
	return l, nil
}

// init builds the deployment in place: rate, reader, fault injector,
// RNG and metrics, then the placements — cfg.Tag at cfg.Channel when
// distances is nil, else tag i with ID i at distances[i] — then the
// receive chains past the first. Each extra chain draws, per placement,
// a fresh placement at the same range and keeps its backward channel,
// and the first of those draws' self-interference channel; every chain
// draws independent thermal noise. That independence across antennas
// is what provides spatial diversity.
func (l *Link) init(cfg LinkConfig, distances []float64, nrx int) error {
	rate, err := wifi.RateByMbps(cfg.WiFiMbps)
	if err != nil {
		return err
	}
	if cfg.WiFiPSDUBytes <= 0 {
		return fmt.Errorf("core: WiFiPSDUBytes must be positive")
	}
	if err := cfg.Tag.Validate(); err != nil {
		return err
	}
	if cfg.Reader.Obs == nil {
		cfg.Reader.Obs = cfg.Obs
	}
	rdr, err := reader.New(cfg.Reader)
	if err != nil {
		return err
	}
	inj, err := fault.NewInjector(cfg.Faults, faultBase(cfg.Seed, 0), tag.SampleRate, cfg.Obs)
	if err != nil {
		return err
	}
	// Placements override at most the distance; the rest of the channel
	// template must be valid as given.
	if err := cfg.Channel.Validate(); err != nil {
		return err
	}
	*l = Link{
		Cfg:  cfg,
		rdr:  *rdr,
		inj:  inj,
		rate: rate,
		m:    newLinkMetrics(cfg.Obs),
	}
	l.rng, l.src = rng.NewWithSource(cfg.Seed)

	n := max(len(distances), 1)
	members := make([]struct {
		tag tag.Tag
		sc  channel.Scenario
	}, n)
	l.Tags = make([]*tag.Tag, n)
	l.Scenarios = make([]*channel.Scenario, n)
	for i := range n {
		tcfg, chanCfg := cfg.Tag, cfg.Channel
		if distances != nil {
			tcfg.ID, chanCfg.DistanceM = i, distances[i]
		}
		tg, err := tag.New(tcfg)
		if err != nil {
			return err
		}
		sc, err := channel.NewScenario(chanCfg, l.rng, l.src)
		if err != nil {
			return err
		}
		members[i].tag, members[i].sc = *tg, *sc
		l.Tags[i], l.Scenarios[i] = &members[i].tag, &members[i].sc
	}
	l.Tag, l.Scenario = l.Tags[0], l.Scenarios[0]

	l.chains = make([]rxChain, nrx-1)
	for c := range l.chains {
		ch := &l.chains[c]
		ch.HB = make([]channel.Taps, n)
		for i, sc := range l.Scenarios {
			d, err := channel.NewScenario(sc.Cfg, l.rng, l.src)
			if err != nil {
				return err
			}
			if i == 0 {
				ch.HEnv = d.HEnv
			}
			ch.HB[i] = d.HB
		}
	}
	return nil
}

// reseedAttempt pins the link's RNG streams to attempt ordinal n —
// the session schedule (DESIGN.md §5j). The main stream (transmit
// distortion, AWGN) and the fault stream reseed in O(1) to pure
// functions of their base seeds and n; the channel evolver's stream is
// owned by the session and reseeded there. Session.Send drives it per
// attempt, MultiTagSession.SendSlot per slot.
func (l *Link) reseedAttempt(n int) {
	l.rng.Seed(rng.Mix(l.Cfg.Seed, n))
	l.inj.Reseed(rng.Mix(faultBase(l.Cfg.Seed, l.faultEpoch), n))
}

// SetSlotPool shares excitation templates with every other link
// holding p. Templates are a pure function of the burst shape, so
// sharing never changes a result — only how many copies are retained.
func (l *Link) SetSlotPool(p *SlotPool) { l.pool = p }

// SetTagConfig swaps the link's tag configuration in place — the rate
// controller's switch path (DESIGN.md §5f). The placement realization,
// RNG stream, and fault injector all carry over untouched: only the
// tag's modulation/coding/rate change, exactly as a real tag obeys a
// new configuration carried in the reader's poll. Setting the current
// configuration is a no-op, so an idle controller never perturbs
// anything.
func (l *Link) SetTagConfig(cfg tag.Config) error {
	if cfg == l.Tag.Cfg {
		return nil
	}
	tg, err := tag.New(cfg)
	if err != nil {
		return err
	}
	*l.Tag = *tg
	l.Cfg.Tag = cfg
	return nil
}

// SetFaultProfile swaps the link's impairment profile mid-stream — the
// chaos harness's severity ramp. The new injector's seed derives from
// the link seed and a switch epoch counter, so a fixed (seed, switch
// sequence) pair is bit-identical across runs while successive
// profiles draw decorrelated fault streams. Nil (or an all-zero
// profile) switches faults off.
func (l *Link) SetFaultProfile(p *fault.Profile) error {
	inj, err := fault.NewInjector(p, faultBase(l.Cfg.Seed, l.faultEpoch+1), tag.SampleRate, l.Cfg.Obs)
	if err != nil {
		return err
	}
	l.faultEpoch++
	l.inj = inj
	l.Cfg.Faults = p
	return nil
}

// windowSlack extends the processing window past the frame's nominal
// extent so the decoder's timing search (±TimingSearch samples) and the
// MRC grid never read outside computed samples.
const windowSlack = 64

// frameScratch is one frame's waveform-sized working memory: the air
// copy, the forward signal at a tag, the tag's modulation sequence, its
// reflection, the reflection through h_b, and one AP capture and one
// decoder per receive chain. It comes from scratchPool for the duration
// of one exchange and goes back before the result is returned, so no
// session retains a buffer sized by the waveform.
type frameScratch struct {
	air, z, mod, refl, bs []complex128
	y                     [][]complex128
	dec                   []reader.Stream
}

var (
	scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}
	scratchOff  atomic.Bool
)

// SetScratchPooling switches the process-wide frame scratch pool on or
// off and reports the previous setting. Off, every frame runs in fresh
// zeroed buffers — the reference the determinism tests compare pooled
// runs against, proving shared scratch carries nothing between frames.
func SetScratchPooling(on bool) bool { return !scratchOff.Swap(!on) }

func getScratch() *frameScratch {
	if scratchOff.Load() {
		return new(frameScratch)
	}
	return scratchPool.Get().(*frameScratch)
}

func putScratch(fs *frameScratch) {
	if !scratchOff.Load() {
		scratchPool.Put(fs)
	}
}

// RunPacket performs one full exchange with tag 0: the AP transmits a
// CTS-to-SELF, the wake preamble, and enough back-to-back WiFi PPDUs
// for the payload; the tag wakes and backscatters; the AP decodes.
func (l *Link) RunPacket(payload []byte) (*PacketResult, error) {
	res, err := l.Poll(0, payload)
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}

// sizing returns the PPDU count covering need post-wake samples.
func (l *Link) sizing(need int) int {
	ppduLen := wifi.PPDULen(l.Cfg.WiFiPSDUBytes, l.rate)
	return max((need+ppduLen-1)/ppduLen, 1)
}

// template returns the shared excitation template for a burst waking
// tg with nppdu PPDUs at txPowerW.
func (l *Link) template(tg *tag.Tag, txPowerW float64, nppdu int) (*reader.Excitation, int, error) {
	if l.pool == nil {
		l.pool = newSlotPool(1, maxPoolBytes)
	}
	tsp := l.trace.Start("excitation_build")
	sp := l.m.spanExcitation.Start()
	ex, packetStart, hit, err := l.pool.excitation(tg, l.rate, l.Cfg.WiFiPSDUBytes, txPowerW, nppdu)
	sp.End()
	tsp.End()
	if hit {
		l.m.cacheHit.Inc()
	} else {
		l.m.cacheMiss.Inc()
	}
	return ex, packetStart, err
}

// exchange is the one pipeline under every entry point: RunPacket,
// RunCustomExcitation, Poll and RunSlot. One excitation carries
// polled[0]'s wake sequence out of the deployment's one AP, whose
// self-interference channel, transmit distortion and thermal noise are
// placement 0's draw whichever tag is polled; every tag decides from
// its own forward channel whether it woke; polled[k] backscatters
// payloads[k], and any other tag that wakes is an impostor. ex is the
// excitation (ideal baseband, never written — it may be a shared
// template) with the tags' timing origin at packetStart; nil builds the
// pooled WiFi template sized for the polled frames. Nothing past the
// window is computed: the frames the polled tags send and the one any
// other tag would send if it woke (an impostor's junk is as long as the
// first payload), plus a symbol and the timing slack.
//
// With group set the exchange is a slot: the reader also decodes the
// unpolled members of the wake group, a layer it could not attempt is
// a nil result, and a slot no tag woke for is an empty result. Without
// it the polled tags are decoded alone, and a tag that slept or could
// not be attempted is an error wrapping ErrTagNoWake or
// reader.ErrUndecodable.
func (l *Link) exchange(ex *reader.Excitation, packetStart int, polled []int, payloads [][]byte, group bool) (*SlotResult, error) {
	need, hiNeed, sps := 0, 0, 0
	for i, tg := range l.Tags {
		if k := slices.Index(polled, i); k >= 0 {
			need = max(need, tagNeed(tg.Cfg, len(payloads[k])))
		} else {
			hiNeed = max(hiNeed, tagNeed(tg.Cfg, len(payloads[0])))
		}
		sps = max(sps, tg.Cfg.SamplesPerSymbol())
	}
	hiNeed = max(hiNeed, need)
	frame := l.frame
	l.frame++
	lead := polled[0]
	if ex == nil {
		var err error
		if ex, packetStart, err = l.template(l.Tags[lead], l.Scenario.TxPowerW(), l.sizing(need)); err != nil {
			return nil, err
		}
	}
	x := ex.Samples()
	b := burst{
		ex:          ex,
		x:           x[:min(packetStart+hiNeed+sps+windowSlack, len(x))],
		packetStart: packetStart,
		packetLen:   len(x) - packetStart,
		polled:      polled,
		payloads:    payloads,
		frame:       frame,
	}
	fs := getScratch()
	defer putScratch(fs)
	err := l.capture(fs, &b)
	res := &SlotResult{
		Polled:  slices.Clone(polled),
		Woke:    b.woke,
		Results: make([]*PacketResult, len(polled)),
	}
	if err != nil {
		if group && errors.Is(err, ErrTagNoWake) {
			return res, nil
		}
		return nil, err
	}

	// A slot decodes every provisioned member of the wake group, not
	// just the polled subset: an unpolled member that woke (an impostor)
	// is still a known PN the successive canceller can peel off, which is
	// what keeps the polled layers decodable underneath it. Only polled
	// outcomes are reported.
	cfgs := make([]tag.Config, len(polled), len(l.Tags))
	for k, i := range polled {
		cfgs[k] = l.Tags[i].Cfg
	}
	if group {
		wake := l.Tags[lead].WakeID()
		for i, tg := range l.Tags {
			if !slices.Contains(polled, i) && tg.WakeID() == wake {
				cfgs = append(cfgs, tg.Cfg)
			}
		}
	}
	dec, err := l.decode(fs, &b, cfgs)
	if err != nil {
		return nil, err
	}
	res.Order = dec.Order
	for k, i := range polled {
		layer, err := dec.Tag(k)
		if err != nil {
			if group {
				continue
			}
			return nil, err
		}
		pr := l.result(l.Scenarios[i], cfgs[k], layer, payloads[k], b.packetLen, b.plans[k])
		res.AirtimeSec = max(res.AirtimeSec, pr.TagAirtimeSec)
		res.Results[k] = pr
		if pr.Delivered {
			res.Delivered++
		}
	}
	return res, nil
}

// burst is one exchange as capture simulates it. x is the ideal
// excitation ex sliced to the window [0, hi) the captures share; packetLen
// is the whole packet's length past packetStart, the tags' timing
// origin. polled[k] backscatters payloads[k], and any other tag that
// wakes is an impostor sending junk keyed by frame. capture sets
// woke[i] for the tags that woke on time and plans[k], polled[k]'s
// transmit plan (nil when it slept).
type burst struct {
	ex                     *reader.Excitation
	x                      []complex128
	packetStart, packetLen int
	polled                 []int
	payloads               [][]byte
	frame                  int
	woke                   []bool
	plans                  []*tag.TxPlan
}

// capture is the channel half of every exchange, K tags × N receive
// chains: single-tag, multi-tag slot and multi-antenna alike. It leaves
// chain c's capture in fs.y[c], computing only the window [0, hi). The
// stages run in one order: transmit distortion and front-end faults;
// the injected wake drop; per tag, its forward channel and wake gate (a
// tag that wakes off-time counts as asleep), phase noise and preamble
// corruption (polled tags only) and its reflection through each chain's
// backward channel; then per chain, chain 0 first, thermal noise,
// interference, the ADC and capture truncation over [packetStart, hi).
// When no tag wakes it returns an ErrTagNoWake error before drawing any
// noise.
func (l *Link) capture(fs *frameScratch, b *burst) error {
	l.m.packets.Inc()
	x, ps, hi := b.x, b.packetStart, len(b.x)
	ap, inj := l.Scenario, l.inj
	b.woke = make([]bool, len(l.Tags))
	b.plans = make([]*tag.TxPlan, len(b.polled))

	tsp := l.trace.Start("channel_sim")
	sp := l.m.spanChannelSim.Start()
	defer tsp.End()
	defer sp.End()

	// Air: the transmitted waveform carries hardware distortion the
	// receiver cannot reconstruct, plus any injected front-end
	// impairments (CFO/SCO) — the reader's ideal copy x keeps its own
	// clock, so these degrade cancellation and channel estimation.
	fs.air = ap.Distortion.ApplyInto(fs.air, x)
	inj.ApplyFrontEnd(fs.air)
	// An injected wake fault corrupts the burst itself: every tag
	// sharing the sequence sleeps through it.
	if inj.DropWake() {
		l.m.failWake.Inc()
		return fmt.Errorf("%w: injected wake fault at %.2g m", ErrTagNoWake, l.Scenarios[b.polled[0]].Cfg.DistanceM)
	}

	nrx := 1 + len(l.chains)
	for len(fs.y) < nrx {
		fs.y = append(fs.y, nil)
		fs.dec = append(fs.dec, reader.Stream{})
	}
	fs.refl = growTo(fs.refl, hi)
	clear(fs.refl[:ps])
	var noWake error
	woken := false
	for i, tg := range l.Tags {
		sc := l.Scenarios[i]
		k := slices.Index(b.polled, i)
		// Tag side: forward channel, then wake detection. The tag scans
		// only the region after the CTS-to-SELF (its envelope detector
		// ignores the constant-on CTS burst, which cannot match the
		// balanced wake sequence).
		fs.z = dsp.ConvolveRangeInto(fs.z, fs.air, sc.HF, 0, hi)
		wakeIdx, ok := tg.TryWake(fs.z[:ps+tag.SilentSamples])
		if !ok {
			if k >= 0 {
				l.m.failWake.Inc()
			}
			if noWake == nil {
				noWake = fmt.Errorf("%w at %.2g m", ErrTagNoWake, sc.Cfg.DistanceM)
			}
			continue
		}
		// The detector quantizes to 1 µs bits; the tag snaps to the true
		// PPDU start only within one bit period (as the real tag's
		// comparator clock does).
		if d := wakeIdx - ps; d < -tag.WakeBitSamples || d > tag.WakeBitSamples {
			l.m.failWakeTiming.Inc()
			if noWake == nil {
				noWake = fmt.Errorf("%w: wake timing off by %d samples", ErrTagNoWake, d)
			}
			continue
		}
		body := b.payloads[0]
		if k >= 0 {
			body = b.payloads[k]
		} else {
			body = impostorPayload(l.Cfg.Seed, tg.Cfg.ID, b.frame, len(body))
		}
		mod, plan, err := tg.ModulationSequenceInto(fs.mod, hi-ps, body)
		if err != nil {
			return err
		}
		fs.mod = mod
		if k >= 0 {
			b.plans[k] = plan
			// Tag-side faults: oscillator phase noise over the reflection,
			// and preamble chips the modulator glitches.
			inj.ApplyTagPhaseNoise(mod)
			inj.CorruptPreamble(mod, plan.SilentEnd, tg.Cfg.PreambleChips, tag.ChipSamples)
		}
		if !woken {
			// The first reflection: every chain's capture starts from the
			// self-interference the AP receives over the packet window.
			for c := range nrx {
				henv, _ := l.chainTaps(c, i)
				fs.y[c] = dsp.ConvolveRangeInto(fs.y[c], fs.air, henv, ps, hi)
			}
		}
		b.woke[i], woken = true, true
		// Reflection z·m (zero before the packet, so the h_b convolution's
		// look-back reads defined samples) through each chain's backward
		// channel.
		for n := ps; n < hi; n++ {
			fs.refl[n] = fs.z[n] * mod[n-ps]
		}
		for c := range nrx {
			_, hb := l.chainTaps(c, i)
			fs.bs = dsp.ConvolveRangeInto(fs.bs, fs.refl, hb, ps, hi)
			y := fs.y[c]
			for n := ps; n < hi; n++ {
				y[n] += fs.bs[n]
			}
		}
	}
	if !woken {
		return noWake
	}
	// AP receive: thermal noise, then receiver-side faults over the
	// packet window: interference bursts, the real ADC, and capture
	// truncation (drawn against the whole packet, so only a cut reaching
	// back into the window matters).
	for c := range nrx {
		y := fs.y[c]
		ap.Noise.AddInPlaceRange(y, ps, hi)
		inj.AddInterference(y[ps:hi])
		inj.ApplyADC(y[ps:hi])
		inj.TruncateTail(y, ps, b.packetLen)
	}
	return nil
}

// chainTaps returns receive chain c's self-interference channel and
// placement i's backward channel into chain c. Chain 0 is the
// placements' own draw, and its self-interference channel is placement
// 0's whichever tag is polled: a deployment has one AP.
func (l *Link) chainTaps(c, i int) (henv, hb channel.Taps) {
	if c == 0 {
		return l.Scenario.HEnv, l.Scenarios[i].HB
	}
	ch := &l.chains[c-1]
	return ch.HEnv, ch.HB[i]
}

// decode runs the reader's one decoder over every receive chain's
// capture for the tags in cfgs.
func (l *Link) decode(fs *frameScratch, b *burst, cfgs []tag.Config) (*reader.Decoded, error) {
	nrx := 1 + len(l.chains)
	tsp := l.trace.Start("decode_total")
	sp := l.m.spanDecode.Start()
	dec, err := l.rdr.Decode(fs.dec[:nrx], b.ex, fs.air, fs.y[:nrx], b.packetStart, len(b.x)-b.packetStart, cfgs)
	sp.End()
	tsp.End()
	return dec, err
}

// result scores a tag's decode against the payload it sent (plan is its
// transmit plan, nil when it slept) and records it into the link
// metrics. sc is the tag's placement.
func (l *Link) result(sc *channel.Scenario, tcfg tag.Config, res *reader.Result, sent []byte, packetLen int, plan *tag.TxPlan) *PacketResult {
	pr := &PacketResult{
		Decode:            res,
		Sent:              sent,
		ExcitationSamples: packetLen,
		ExpectedSNRdB:     sc.ExpectedSNRdB(),
		MeasuredSNRdB:     res.SNRdB,
	}
	pr.liftDiagnostics(res)
	sps := tcfg.SamplesPerSymbol()
	guard := min(l.Cfg.Reader.ChannelTaps, sps/2)
	floorW := dsp.UnDBm(pr.SICResidualDBm)
	pr.ExpectedMRCSNRdB = dsp.SNRdB(sc.BackscatterRxPowerW(), floorW) + dsp.DB(float64(sps-guard))
	pr.PayloadOK = res.FrameOK && bytes.Equal(res.Payload, sent)
	pr.Delivered = pr.PayloadOK
	if plan != nil {
		pr.TagAirtimeSec = float64(plan.End()-plan.SilentEnd) / tag.SampleRate
		// Raw coded-bit errors over the frame's symbols.
		hard := tcfg.Mod.DemapHard(res.SymbolEstimates[:min(len(plan.Symbols), len(res.SymbolEstimates))])
		for i, b := range plan.CodedBits[:min(len(plan.CodedBits), len(hard))] {
			if hard[i] != b {
				pr.RawBitErrors++
			}
			pr.RawBits++
		}
	}
	l.observeResult(pr)
	return pr
}

// growTo returns b resized to n samples, reallocating only when its
// capacity is short. Contents are unspecified.
func growTo(b []complex128, n int) []complex128 {
	if cap(b) < n {
		return make([]complex128, n)
	}
	return b[:n]
}

// observeResult records one packet's outcome into the link metrics.
func (l *Link) observeResult(pr *PacketResult) {
	if pr.PayloadOK {
		l.m.packetsOK.Inc()
	}
	l.m.rawBER.Observe(pr.RawBER())
	l.m.snrExpected.Observe(pr.ExpectedSNRdB)
	l.m.snrExpectedMRC.Observe(pr.ExpectedMRCSNRdB)
	l.m.snrMeasured.Observe(pr.MeasuredSNRdB)
}

// RandomPayload draws a payload of n bytes from the link's RNG.
func (l *Link) RandomPayload(n int) []byte {
	p := make([]byte, n)
	l.rng.Read(p)
	return p
}
