package core

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"backfi/internal/adapt"
	"backfi/internal/channel"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// Session is a long-lived BackFi connection: one placement whose
// channels evolve slowly between packets, with stop-and-wait ARQ on
// top of the frame CRC. It is the layer an application (a sensor
// streaming readings) actually talks to.
type Session struct {
	link    *Link
	evolver *channel.Evolver
	// MaxRetries bounds retransmissions per frame.
	MaxRetries int
	// Controller, when non-nil, closes the rate-control loop (DESIGN.md
	// §5f): every attempt's diagnostics feed it, and the configuration
	// switches it decides apply before the next attempt — the session
	// downshifts through the ladder instead of burning its retry budget
	// when the channel degrades. Nil keeps the session fixed at
	// LinkConfig.Tag, byte-identical to a build without the controller.
	Controller *adapt.Controller
	// Backoff is the deterministic ARQ backoff policy: retry k of a
	// frame charges Delay(k) of virtual wait time to the session's
	// BackoffSec. The zero value (no backoff) reproduces the historical
	// back-to-back retry accounting exactly. No wall-clock sleeping
	// happens anywhere — the simulator owns time.
	Backoff BackoffPolicy
	// Stats accumulates over the session.
	Stats SessionStats

	// attempts counts RunPacket attempts ever started, across frames and
	// retries — the ordinal every stream reseeds from (DESIGN.md §5j).
	attempts int
	// baseRho is the static-placement coherence the session was opened
	// with; a mobility fault profile lowers the evolver below it and a
	// profile without mobility restores it (DESIGN.md §5k).
	baseRho float64
	// evolverRNG is the evolver's own stream, so per-attempt reseeds of
	// the link's main stream and the evolver's never overlap draw
	// positions.
	evolverRNG *rand.Rand
}

// evolverSalt decorrelates the evolver stream from the link's main
// stream, which reseeds from the same attempt ordinal.
const evolverSalt = 0x3c6ef372

// BackoffPolicy is truncated binary exponential backoff, accounted in
// virtual time: Delay(k) = BaseSec·2^(k−1) for retry k ≥ 1, capped at
// MaxSec when MaxSec > 0. The zero value disables backoff.
type BackoffPolicy struct {
	// BaseSec is the first retry's delay in seconds.
	BaseSec float64
	// MaxSec caps a single delay; 0 means uncapped.
	MaxSec float64
}

// Delay returns retry k's virtual wait in seconds (0 for the first
// attempt and for a zero policy).
func (b BackoffPolicy) Delay(retry int) float64 {
	if b.BaseSec <= 0 || retry <= 0 {
		return 0
	}
	d := b.BaseSec * math.Pow(2, float64(retry-1))
	if b.MaxSec > 0 && d > b.MaxSec {
		d = b.MaxSec
	}
	return d
}

// SessionStats summarizes a session's history. The JSON names are the
// serving protocol's.
type SessionStats struct {
	// FramesOffered / FramesDelivered count application frames.
	FramesOffered   int `json:"frames_offered"`
	FramesDelivered int `json:"frames_delivered"`
	// PacketsSent counts air transmissions (including retries).
	PacketsSent int `json:"packets_sent"`
	// PayloadBits counts successfully delivered information bits.
	PayloadBits int `json:"payload_bits"`
	// AirtimeSec accumulates tag modulation time across attempts.
	AirtimeSec float64 `json:"airtime_sec"`
	// ACKsDropped counts frames that decoded but whose ACK was lost on
	// the way back to the tag (injected fault), forcing a retransmission
	// of data the reader already had.
	ACKsDropped int `json:"acks_dropped"`
	// NoWakes counts attempts the tag slept through: the AP transmitted
	// the excitation (consuming a retry attempt, like a CRC failure) but
	// the tag never woke, so no tag airtime accrues for the attempt.
	// This mirrors Evaluate, which counts ErrTagNoWake as loss
	// rather than aborting.
	NoWakes int `json:"no_wakes"`
	// Backoffs counts retries that charged a backoff delay, and
	// BackoffSec the virtual wait they accumulated (zero under the zero
	// BackoffPolicy). Backoff time is protocol idle time, not tag
	// modulation time, so it is kept apart from AirtimeSec. These and
	// ConfigSwitches are omitted from JSON when zero, so stats without
	// backoff or adaptation keep their earlier bytes.
	Backoffs   int     `json:"backoffs,omitempty"`
	BackoffSec float64 `json:"backoff_sec,omitempty"`
	// ConfigSwitches counts rate-controller ladder moves applied to the
	// link (0 without a controller).
	ConfigSwitches int `json:"config_switches,omitempty"`
}

// Retries returns the retransmission count: air transmissions beyond
// each offered frame's first. A frame that errors out of the pipeline
// before its first transmission leaves PacketsSent behind FramesOffered,
// so the count clamps at zero instead of going negative.
func (s SessionStats) Retries() int {
	if r := s.PacketsSent - s.FramesOffered; r > 0 {
		return r
	}
	return 0
}

// DeliveryRate returns delivered/offered.
func (s SessionStats) DeliveryRate() float64 {
	if s.FramesOffered == 0 {
		return 0
	}
	return float64(s.FramesDelivered) / float64(s.FramesOffered)
}

// GoodputBps returns delivered bits over accumulated tag airtime.
func (s SessionStats) GoodputBps() float64 {
	if s.AirtimeSec == 0 {
		return 0
	}
	return float64(s.PayloadBits) / s.AirtimeSec
}

// NewSession opens a session at one placement. coherenceRho is the
// packet-to-packet channel correlation (use
// channel.CoherenceRho(interval, coherence); 1 freezes the channel).
func NewSession(cfg LinkConfig, coherenceRho float64, maxRetries int) (*Session, error) {
	link, err := NewLink(cfg)
	if err != nil {
		return nil, err
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("core: negative retry budget")
	}
	s := &Session{link: link, MaxRetries: maxRetries, baseRho: coherenceRho,
		evolverRNG: rng.New(rng.Mix(cfg.Seed^evolverSalt, 0))}
	ev, err := channel.NewEvolver(s.evolverRNG, coherenceRho, link.Scenario)
	if err != nil {
		return nil, err
	}
	s.evolver = ev
	return s, nil
}

// NewAdaptiveSession is NewSession plus a closed-loop rate controller
// walking the standard 36-configuration ladder (restricted to symbol
// rates ≥ minSymbolRateHz when positive; the slowest rungs cost real
// decode time). The controller starts at cfg.Tag's rung. actrl tuning
// follows adapt.Config zero-value defaults.
func NewAdaptiveSession(cfg LinkConfig, coherenceRho float64, maxRetries int, actrl adapt.Config, minSymbolRateHz float64) (*Session, error) {
	s, err := NewSession(cfg, coherenceRho, maxRetries)
	if err != nil {
		return nil, err
	}
	ladder := StandardConfigs(cfg.Tag.PreambleChips, cfg.Tag.ID)
	if minSymbolRateHz > 0 {
		kept := ladder[:0]
		for _, c := range ladder {
			if c.SymbolRateHz >= minSymbolRateHz {
				kept = append(kept, c)
			}
		}
		ladder = kept
	}
	ctrl, err := adapt.NewController(actrl, ladder, cfg.Tag)
	if err != nil {
		return nil, err
	}
	s.Controller = ctrl
	return s, nil
}

// Link exposes the underlying link (e.g. for diagnostics).
func (s *Session) Link() *Link { return s.link }

// SetTrace points the session's next Send at a per-frame trace
// context (DESIGN.md §5h), propagated through the link into every
// decode stage. The serving layer reassigns it per job — a zero
// TraceCtx switches tracing off again.
func (s *Session) SetTrace(t obs.TraceCtx) { s.link.SetTrace(t) }

// SetTagConfig forces the session's link onto a configuration,
// bypassing the controller — the serving layer's degraded mode uses it
// on non-adaptive sessions. With a controller attached, prefer
// Controller.SetCeiling so the forced move is recorded in the trace.
func (s *Session) SetTagConfig(cfg tag.Config) error {
	return s.link.SetTagConfig(cfg)
}

// MobilityPacketIntervalSec is the nominal packet-to-packet interval
// the mobility mapping integrates Doppler decorrelation over. It is a
// fixed model constant — sessions own virtual time, so tying it to
// wall clock would break the determinism contract.
const MobilityPacketIntervalSec = 5e-3

// SetFaultProfile swaps the session's impairment profile mid-stream
// (scripted chaos timelines). Deterministic: see Link.SetFaultProfile.
// A profile that sets MobilitySpeedMps additionally lowers the channel
// evolver's packet-to-packet ρ through the Clarke mobility mapping
// (floored by the session's static baseline); a profile without
// mobility restores the baseline. Because the mapping lives here, every
// caller — the serving layer's frame-indexed timeline, its handoff
// install, and the chaos harness — applies identical ρ switches at
// identical frame ordinals, which is what keeps mobile tap evolutions
// bit-identical for any worker or shard count.
func (s *Session) SetFaultProfile(p *fault.Profile) error {
	if err := s.link.SetFaultProfile(p); err != nil {
		return err
	}
	rho := s.baseRho
	if p != nil && p.MobilitySpeedMps > 0 {
		carrier := s.link.Cfg.Channel.CarrierHz
		if carrier <= 0 {
			carrier = channel.DefaultCarrierHz
		}
		if m := channel.MobilityRho(p.MobilitySpeedMps, carrier, MobilityPacketIntervalSec); m < rho {
			rho = m
		}
	}
	return s.evolver.SetRho(rho)
}

// Send delivers one application frame with stop-and-wait ARQ: on CRC
// failure — or a wake miss, which the protocol cannot tell apart from a
// lost frame — the tag retransmits (the AP polls again) up to
// MaxRetries times, with the channel evolving between attempts. It
// returns the last attempt's result (nil when no attempt produced one)
// and whether the frame was delivered end to end. The result's
// Delivered field matches the returned flag, so an ACK-dropped final
// attempt reads PayloadOK=true, Delivered=false.
func (s *Session) Send(payload []byte) (*PacketResult, bool, error) {
	s.Stats.FramesOffered++
	var last *PacketResult
	for attempt := 0; attempt <= s.MaxRetries; attempt++ {
		if attempt > 0 {
			if d := s.Backoff.Delay(attempt); d > 0 {
				s.Stats.Backoffs++
				s.Stats.BackoffSec += d
			}
		}
		// The schedule (DESIGN.md §5j): pin every stream to the global
		// attempt ordinal, and step the evolver once per ordinal after
		// the very first, so the session's whole stochastic future is a
		// pure function of (seed, ordinal).
		s.link.reseedAttempt(s.attempts)
		s.evolverRNG.Seed(rng.Mix(s.link.Cfg.Seed^evolverSalt, s.attempts))
		if s.attempts > 0 {
			s.evolver.Step()
		}
		s.attempts++
		res, err := s.link.RunPacket(payload)
		if err != nil {
			if errors.Is(err, ErrTagNoWake) {
				// The AP transmitted but the tag slept through the wake
				// preamble: a lost attempt, exactly as Evaluate
				// accounts it — not a pipeline failure. The excitation
				// was sent, so the attempt counts; the tag never
				// modulated, so no airtime accrues.
				s.Stats.PacketsSent++
				s.Stats.NoWakes++
				s.adapt(adapt.Observation{NoWake: true})
				continue
			}
			return nil, false, err
		}
		s.Stats.PacketsSent++
		s.Stats.AirtimeSec += res.TagAirtimeSec
		last = res
		if res.PayloadOK {
			// An injected ACK loss means the tag never learns the frame
			// got through: the reader has the data, but the exchange
			// repeats and only a later attempt can complete the frame.
			if s.link.inj.DropACK() {
				s.Stats.ACKsDropped++
				res.Delivered = false
				s.adapt(observe(res, false, true))
				continue
			}
			res.Delivered = true
			s.Stats.FramesDelivered++
			s.Stats.PayloadBits += 8 * len(payload)
			s.adapt(observe(res, true, false))
			return res, true, nil
		}
		s.adapt(observe(res, false, false))
	}
	return last, false, nil
}

// SessionSnapshot is a session's complete resumable state (DESIGN.md
// §5j): the attempt ordinal (which pins every RNG stream), the evolved
// channel taps, the link's fault epoch, the accumulated stats, and the
// rate controller's state when one is attached. Restore copies these
// values in O(1); the placement draw and excitation template are
// recomputed from the link seed, and the current ρ from the fault
// profile the caller applies before restoring.
type SessionSnapshot struct {
	// Attempts is the total RunPacket attempts started (frames plus
	// retries plus wake misses).
	Attempts int
	// HEnv, HF and HB are the scenario's taps as the evolver left them.
	HEnv, HF, HB channel.Taps
	// FaultEpoch counts the fault-profile switches the link has applied;
	// it salts the fault stream's per-attempt seeds.
	FaultEpoch int
	// Stats is the accumulated session history.
	Stats SessionStats
	// Ctrl carries the adapt controller state; nil for fixed-rate
	// sessions.
	Ctrl *adapt.State
}

// Snapshot captures the session for handoff. The taps are copies, so
// the snapshot stays valid while the session keeps sending.
func (s *Session) Snapshot() SessionSnapshot {
	sc := s.link.Scenario
	snap := SessionSnapshot{Attempts: s.attempts, Stats: s.Stats, FaultEpoch: s.link.faultEpoch,
		HEnv: slices.Clone(sc.HEnv), HF: slices.Clone(sc.HF), HB: slices.Clone(sc.HB)}
	if s.Controller != nil {
		st := s.Controller.State()
		snap.Ctrl = &st
	}
	return snap
}

// RestoreSnapshot installs a snapshot taken on another node into a
// freshly built session in O(1): taps, fault epoch, attempt ordinal and
// stats are copied, and the controller state is installed with its
// rung applied to the link. The receiving session must be unused and
// built from the identical link configuration, with the fault profile
// the origin last applied already set; the next Send then continues
// the decode stream byte-identically with the original's. The taps
// must be finite and as many as the receiver's, and the leakage tap
// (HEnv[0], which never evolves) must equal the receiver's own — a
// cheap check that both nodes drew the same placement.
func (s *Session) RestoreSnapshot(snap SessionSnapshot) error {
	if s.attempts != 0 || s.Stats != (SessionStats{}) {
		return fmt.Errorf("core: restore into used session (%d attempts)", s.attempts)
	}
	if snap.Attempts < 0 || snap.FaultEpoch < 0 {
		return fmt.Errorf("core: snapshot ordinal %d or fault epoch %d negative", snap.Attempts, snap.FaultEpoch)
	}
	if (snap.Ctrl != nil) != (s.Controller != nil) {
		return fmt.Errorf("core: snapshot controller presence mismatch")
	}
	sc := s.link.Scenario
	for i, p := range [...][2]channel.Taps{{snap.HEnv, sc.HEnv}, {snap.HF, sc.HF}, {snap.HB, sc.HB}} {
		if len(p[0]) != len(p[1]) || slices.ContainsFunc(p[0], func(v complex128) bool { return cmplx.IsNaN(v) || cmplx.IsInf(v) }) {
			return fmt.Errorf("core: snapshot tap set %d is not %d finite taps", i, len(p[1]))
		}
	}
	if len(sc.HEnv) > 0 && snap.HEnv[0] != sc.HEnv[0] {
		return fmt.Errorf("core: snapshot leakage tap %v differs from this placement's %v", snap.HEnv[0], sc.HEnv[0])
	}
	if snap.Ctrl != nil {
		if err := s.Controller.Restore(*snap.Ctrl); err != nil {
			return err
		}
		if err := s.link.SetTagConfig(s.Controller.Config()); err != nil {
			return err
		}
	}
	copy(sc.HEnv, snap.HEnv)
	copy(sc.HF, snap.HF)
	copy(sc.HB, snap.HB)
	s.link.faultEpoch = snap.FaultEpoch
	s.attempts = snap.Attempts
	s.Stats = snap.Stats
	return nil
}

// observe maps one decoded attempt into the controller's terms.
func observe(res *PacketResult, delivered, ackDropped bool) adapt.Observation {
	return adapt.Observation{
		PayloadOK:            res.PayloadOK,
		Delivered:            delivered,
		ACKDropped:           ackDropped,
		RawBER:               res.RawBER(),
		SICResidualDBm:       res.SICResidualDBm,
		ViterbiCorrectedBits: res.ViterbiCorrectedBits,
		MeasuredSNRdB:        res.MeasuredSNRdB,
	}
}

// adapt feeds one observation to the controller (if any) and applies
// the switch it decides. Ladder rungs are validated at controller
// construction, so a switch cannot fail; if one somehow does, the
// session keeps its current configuration rather than aborting the
// frame.
func (s *Session) adapt(o adapt.Observation) {
	if s.Controller == nil {
		return
	}
	next, changed := s.Controller.Observe(o)
	if !changed {
		return
	}
	if err := s.link.SetTagConfig(next); err != nil {
		return
	}
	s.Stats.ConfigSwitches++
}
