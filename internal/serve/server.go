package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"backfi/internal/adapt"
	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// Config assembles one reader daemon.
type Config struct {
	// Addr is the TCP listen address; use "localhost:0" for an
	// ephemeral port (read it back with Server.Addr).
	Addr string
	// Link is the session template. Every session clones it with a
	// per-session seed, Link.Seed + FNV-1a64(session id), so a
	// session's decode stream depends only on its id and the order of
	// its own jobs — never on shard count or cross-session
	// interleaving. The zero value defaults to
	// core.DefaultLinkConfig(1).
	Link core.LinkConfig
	// CoherenceRho is the packet-to-packet channel correlation of each
	// session (see core.NewSession). 0 defaults to 0.95.
	CoherenceRho float64
	// MaxRetries bounds each session's per-frame ARQ budget.
	MaxRetries int
	// Shards is the number of independent session-state owners. A
	// session id always hashes to the same shard, which serializes that
	// session's jobs; different sessions proceed concurrently. 0
	// defaults to 4.
	Shards int
	// QueueDepth bounds each shard's job queue. A full queue rejects
	// with ErrQueueFull immediately — admission never blocks a
	// connection. 0 defaults to 64.
	QueueDepth int
	// BatchMax bounds how many queued jobs one shard pass drains into a
	// single parallel.ForEach batch. 0 defaults to 16.
	BatchMax int
	// BatchWorkers bounds each batch's decode concurrency across the
	// distinct sessions it contains (0 = all CPUs).
	BatchWorkers int
	// JobTimeout is the default per-job deadline measured from
	// admission; a job still queued past it is answered
	// deadline_exceeded without touching its session. 0 disables.
	JobTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: how long Shutdown waits
	// for admitted jobs to finish before giving up. 0 defaults to 10s.
	DrainTimeout time.Duration
	// Adapt attaches a closed-loop rate controller (internal/adapt) to
	// every session: per-packet diagnostics walk the standard
	// configuration ladder with hysteresis instead of holding the
	// template rate. Off, the daemon serves exactly as before —
	// byte-identical response streams.
	Adapt bool
	// AdaptMinSymbolRateHz restricts the ladder (and the watchdog's
	// robust fallback) to symbol rates at or above it — the slowest
	// rungs cost real decode CPU per frame. 0 keeps all 36 rungs.
	AdaptMinSymbolRateHz float64
	// Timeline scripts fault-profile switches against each session's
	// own frame index: step k applies just before the session's
	// Frame-th decode. Frame indexing (not wall clock) keeps scripted
	// chaos deterministic across shard and worker counts. Nil disables.
	Timeline *fault.Timeline
	// WatchdogAfter enables the SIC-health watchdog: a session whose
	// post-cancellation residual exceeds WatchdogResidualDBm for that
	// many consecutive decoded frames is flipped into degraded mode —
	// forced onto the most robust ladder rung (via the controller's
	// ceiling when adapting, directly otherwise) and flagged Degraded
	// on every response until it recovers. 0 disables the watchdog.
	WatchdogAfter int
	// WatchdogResidualDBm is the unhealthy-residual threshold. A
	// healthy canceller sits near the thermal floor (≈ −90 dBm); a
	// residual tens of dB above it means self-interference is leaking
	// past SIC and every decode is at risk.
	WatchdogResidualDBm float64
	// WatchdogRecover is the consecutive healthy frames required to
	// lift degraded mode (hysteresis against flapping). 0 defaults
	// to 8.
	WatchdogRecover int
	// SessionCache has no effect: every session runs the one windowed
	// pipeline over the server-wide excitation pool. It is kept only so
	// configurations written against earlier builds still compile.
	SessionCache bool
	// Obs receives serving metrics (queue depth, admission outcomes,
	// per-stage latency, batch sizes, session/connection gauges) and is
	// propagated into every session link. Nil disables instrumentation.
	Obs *obs.Registry
	// Tracer samples per-frame distributed traces (DESIGN.md §5h). A
	// request carrying a client trace id joins it; otherwise the server
	// head-samples deterministically on (session id, frame index). Nil
	// disables tracing with zero hot-path cost — the per-job TraceCtx
	// stays zero and no clock is read.
	Tracer *obs.Tracer
	// Flight receives black-box flight-recorder events: watchdog trips
	// and recoveries, scripted fault switches, rate-ladder moves, job
	// and connection panics. Anomalies (trips, panics) also trigger an
	// auto-dump when the recorder has a dump path armed. Nil disables.
	Flight *obs.FlightRecorder
	// SLO accumulates the rolling delivery-rate / latency burn-rate
	// windows over every decode job outcome, including typed
	// rejections. Nil disables.
	SLO *obs.SLO
	// SessionTTL reclaims sessions idle longer than this: each shard's
	// worker goroutine sweeps its own map between batches (single-writer
	// maps, no locking), decrements the session gauge, and records a
	// flight event per eviction. A re-used id after eviction reopens the
	// same deterministic stream from frame zero — the seed is a pure
	// function of the id. 0 disables eviction (sessions live forever,
	// the pre-§5i behavior).
	SessionTTL time.Duration
	// MultiTagImpostor adds an unpolled impostor tag to every multi-tag
	// session the daemon opens (see core.MultiTagSessionConfig.Impostor).
	MultiTagImpostor bool
	// MultiTagMax bounds the payload-group size an mdecode request may
	// carry. 0 defaults to 8.
	MultiTagMax int
	// Handoff publishes session portability (DESIGN.md §5j): every
	// successful decode response carries a versioned HandoffState
	// snapshot, and the daemon accepts the handoff op to install a
	// snapshot taken on another node. Every session follows the same
	// per-attempt RNG schedule either way, so the flag never changes a
	// decode stream — only whether snapshots travel. All nodes of a
	// cluster must agree on the rest of the serving configuration for
	// handoff to resume streams byte-identically. The snapshot is the
	// session's whole state — channel taps, counters, controller,
	// watchdog and, with Energy, the tank — so an install costs O(1)
	// at any session age and combines with every other option.
	// Multi-tag sessions are not portable: mdecode responses carry no
	// snapshot, and a handoff onto a group id is bad_request.
	Handoff bool
	// Energy enables the energy-aware poll scheduler (DESIGN.md §5k):
	// every single-tag session carries a deterministic supercap tank
	// seeded from the session seed, polls that find the tag below its
	// wake threshold are answered CodeTagDark without touching the
	// session (the dark episode is invisible to the decode stream —
	// the session resumes byte-identically on wake), and each decoded
	// frame's transmit energy is drained from the tank. With Handoff
	// the tank, the dark streak and the liveness estimate travel in
	// every snapshot, and tag_dark answers carry one too.
	Energy bool
	// EnergySeverity is the harvest scarcity in [0,1] applied to every
	// session's tank (energy.TankConfig.Severity): the per-slot
	// probability that ambient harvest is occluded down to ScarceFrac.
	// 0 (the default) keeps tags effectively always-live.
	EnergySeverity float64
	// EnergyTank overrides the serving tank template (Seed and Severity
	// are still filled per session / from EnergySeverity). Nil uses the
	// serving default, which is scaled to the serving cadence so
	// EnergySeverity sweeps the full live→dark range (see energy.go).
	EnergyTank *energy.TankConfig
}

// Validate checks the configuration without filling defaults.
func (c *Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("serve: negative shard count %d", c.Shards)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: negative queue depth %d", c.QueueDepth)
	}
	if c.BatchMax < 0 {
		return fmt.Errorf("serve: negative batch bound %d", c.BatchMax)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("serve: negative retry budget %d", c.MaxRetries)
	}
	if c.CoherenceRho < 0 || c.CoherenceRho > 1 {
		return fmt.Errorf("serve: coherence rho %v outside [0,1]", c.CoherenceRho)
	}
	if c.JobTimeout < 0 || c.DrainTimeout < 0 {
		return fmt.Errorf("serve: negative timeout")
	}
	if c.AdaptMinSymbolRateHz < 0 {
		return fmt.Errorf("serve: negative adaptation rate floor %v", c.AdaptMinSymbolRateHz)
	}
	if c.WatchdogAfter < 0 || c.WatchdogRecover < 0 {
		return fmt.Errorf("serve: negative watchdog threshold")
	}
	if c.SessionTTL < 0 {
		return fmt.Errorf("serve: negative session TTL %v", c.SessionTTL)
	}
	if c.MultiTagMax < 0 {
		return fmt.Errorf("serve: negative multi-tag bound %d", c.MultiTagMax)
	}
	if math.IsNaN(c.EnergySeverity) || c.EnergySeverity < 0 || c.EnergySeverity > 1 {
		return fmt.Errorf("serve: energy severity %v outside [0,1]", c.EnergySeverity)
	}
	if c.Energy && c.EnergyTank != nil {
		tc := *c.EnergyTank
		tc.Seed = 1 // filled per session; validate the rest of the template
		tc.Severity = c.EnergySeverity
		if err := tc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "localhost:8337"
	}
	if c.Link.WiFiMbps == 0 && c.Link.Channel.DistanceM == 0 {
		c.Link = core.DefaultLinkConfig(1)
	}
	if c.CoherenceRho == 0 {
		c.CoherenceRho = 0.95
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.BatchMax == 0 {
		c.BatchMax = 16
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.WatchdogRecover == 0 {
		c.WatchdogRecover = 8
	}
	if c.MultiTagMax == 0 {
		c.MultiTagMax = 8
	}
	return c
}

// job is one admitted request on its way through a shard.
type job struct {
	op      string
	session string
	// payloads is the decode payload group: the K payloads of an
	// mdecode, or a decode's one payload held in one (a decode is a
	// group of one, with no allocation of its own). Nil on other ops.
	payloads [][]byte
	one      [1][]byte
	// handoff is the snapshot to install (nil on every op but handoff).
	handoff  *HandoffState
	enqueued time.Time
	deadline time.Time // zero = none
	// tctx is the job's trace context. Dispatch sets it from the
	// request's propagated id; serveJob may upgrade a zero ctx via head
	// sampling, and the connection handler reads it back after the
	// response channel receive (the channel send orders the write).
	tctx obs.TraceCtx
	// batchStart is when the job's shard batch began processing,
	// stamped only when tracing or eviction is configured (zero
	// otherwise).
	batchStart time.Time
	// resp is buffered (cap 1): serveJob never blocks on a slow or
	// vanished connection handler.
	resp chan Response
}

func (j *job) respond(r Response) { j.resp <- r }

// sessionState is one live session plus its decode sequence counter.
// Only its owning shard touches it, and within one batch only the
// goroutine assigned to its session id, so no lock is needed. The core
// session is realized lazily by the id's first decode — an id that
// only ever asks for stats costs no link at all, which is what keeps
// 100k+ churned ids affordable.
type sessionState struct {
	// sess / multi is the id's one core session, never both: a decode
	// or a handoff install realizes the single-tag sess, an mdecode of
	// K payloads the K-tag group multi. The kind and the group size
	// are fixed for the id's lifetime; a decode of the other kind is
	// bad_request.
	sess  *core.Session
	multi *core.MultiTagSession
	// lastUsed is the batch timestamp of the id's most recent job,
	// stamped on the shard worker goroutine (zero unless eviction or
	// tracing is on).
	lastUsed time.Time
	seq      int
	// timelineCur is the session's cursor into the scripted fault
	// timeline (frame-indexed, so it advances identically under any
	// shard/worker count).
	timelineCur int
	// hot / cool count consecutive unhealthy / healthy decoded frames
	// for the SIC watchdog; degraded is the current mode. savedTag
	// remembers the configuration to restore on recovery when the
	// session has no controller to carry a ceiling.
	hot, cool int
	degraded  bool
	savedTag  tag.Config
	// Energy-aware poll scheduler state (DESIGN.md §5k, energy.go):
	// the session's supercap tank (nil when Config.Energy is off or the
	// id is not single-tag), the consecutive-dark-poll streak driving
	// the probe backoff, the virtual seconds that backoff has stood
	// for, and the liveness EWMA (probability a poll finds the tag
	// awake).
	tank        *energy.Tank
	darkStreak  int
	darkSec     float64
	liveness    float64
	livenessSet bool
}

// linkCtl is what the decode arm sets on either session kind before
// its core call.
type linkCtl interface {
	SetTrace(obs.TraceCtx)
	SetFaultProfile(*fault.Profile) error
}

// shard owns an id-partition of the session space: a bounded job
// queue, the sessions hashed to it, and one worker goroutine that
// drains the queue in batches.
type shard struct {
	srv *Server
	id  int
	// mu guards the draining flag against the queue close in Shutdown:
	// enqueue holds it shared so a send never races the close.
	mu       sync.RWMutex
	draining bool
	q        chan *job
	depth    atomic.Int64
	depthG   *obs.Gauge
	liveG    *obs.Gauge
	sessions map[string]*sessionState
	// slab holds the unused sessionStates of the current allocation
	// (newState).
	slab []sessionState
	// nsessions / nevicted mirror len(sessions) and the eviction count
	// for readers outside the worker goroutine (Server.Sessions).
	nsessions atomic.Int64
	nevicted  atomic.Int64
}

// enqueue admits a job or rejects it with a typed error. It never
// blocks: a full queue is ErrQueueFull, a draining shard ErrDraining.
func (sh *shard) enqueue(j *job) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.draining {
		return ErrDraining
	}
	select {
	case sh.q <- j:
		sh.depthG.Set(float64(sh.depth.Add(1)))
		return nil
	default:
		return ErrQueueFull
	}
}

// run is the shard worker: block for one job, opportunistically drain
// up to BatchMax-1 more, and process the batch. Exits when the queue
// is closed and empty (drain complete). With a session TTL configured
// the same goroutine also sweeps its map between batches — eviction is
// a third single-writer touch point, never a lock.
func (sh *shard) run() {
	defer sh.srv.shardWg.Done()
	var tickC <-chan time.Time
	if ttl := sh.srv.cfg.SessionTTL; ttl > 0 {
		period := ttl / 8
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case j, ok := <-sh.q:
			if !ok {
				return
			}
			sh.process(sh.collect(j))
		case now := <-tickC:
			sh.evict(now)
		}
	}
}

// evict reclaims every session idle past the TTL. Runs on the worker
// goroutine only.
func (sh *shard) evict(now time.Time) {
	ttl := sh.srv.cfg.SessionTTL
	m := &sh.srv.m
	for id, st := range sh.sessions {
		idle := now.Sub(st.lastUsed)
		if idle < ttl {
			continue
		}
		// A DARK-but-tracked session is not idle garbage: its tank and
		// probe-backoff streak are what make the eventual wake resume
		// byte-identical, so it stays until the backoff has reached its
		// ceiling.
		if st.darkStreak > 0 {
			if bp := DefaultEnergyBackoff(); bp.Delay(st.darkStreak) < bp.MaxSec {
				continue
			}
		}
		if st.degraded {
			m.degraded.Add(-1)
		}
		delete(sh.sessions, id)
		// The state's slab outlives it; drop what it points at.
		*st = sessionState{}
		sh.nsessions.Add(-1)
		sh.nevicted.Add(1)
		m.sessions.Add(-1)
		m.evictions.Inc()
		sh.srv.cfg.Flight.Record(obs.FlightSessionEvict, id,
			fmt.Sprintf("idle %v past ttl %v", idle.Round(time.Millisecond), ttl), 0)
	}
}

// collect drains queued jobs behind first without blocking, up to the
// batch bound.
func (sh *shard) collect(first *job) []*job {
	batch := []*job{first}
	for len(batch) < sh.srv.cfg.BatchMax {
		select {
		case j, ok := <-sh.q:
			if !ok {
				return batch
			}
			batch = append(batch, j)
		default:
			return batch
		}
	}
	return batch
}

// process runs one batch: group jobs by session preserving admission
// order, open any new session states sequentially (map writes stay on
// this goroutine), then fan the distinct sessions out into
// parallel.ForEach — each session's jobs run sequentially in admission
// order inside its slot, which is the §5e determinism contract.
func (sh *shard) process(batch []*job) {
	sh.depthG.Set(float64(sh.depth.Add(-int64(len(batch)))))
	sh.srv.m.batchJobs.Observe(float64(len(batch)))
	// The batch start stamps job traces and session idle clocks; the
	// clock is read only when tracing or eviction needs it.
	var now time.Time
	if sh.srv.cfg.Tracer != nil || sh.srv.cfg.SessionTTL > 0 {
		now = time.Now()
	}
	order := make([]string, 0, len(batch))
	bySess := make(map[string][]*job, len(batch))
	for _, j := range batch {
		j.batchStart = now
		if _, ok := bySess[j.session]; !ok {
			order = append(order, j.session)
			sh.ensureSession(j.session).lastUsed = now
		}
		bySess[j.session] = append(bySess[j.session], j)
	}
	parallel.ForEach(len(order), sh.srv.cfg.BatchWorkers, func(i int) {
		st := sh.sessions[order[i]]
		for _, j := range bySess[order[i]] {
			sh.serveJob(st, j)
		}
	})
	if sh.srv.cfg.Energy {
		sh.updateLiveness()
	}
}

// ensureSession opens id's state if it has none. It realizes no core
// session — the id's first decode does (see bind) — so every map write
// stays on the worker goroutine while the batch's sessions decode in
// parallel.
func (sh *shard) ensureSession(id string) *sessionState {
	st, ok := sh.sessions[id]
	if !ok {
		st = sh.newState()
		sh.sessions[id] = st
		sh.nsessions.Add(1)
		sh.srv.m.sessions.Add(1)
	}
	return st
}

// stateSlab is how many sessionStates a shard allocates at once.
// Sessions open and idle out in arrival order, so a slab's states die
// together: under churn the live states stay packed, where one
// allocation per session would leave each in its own span of
// per-request garbage after GC.
const stateSlab = 16

// newState returns a zeroed sessionState from the shard's current slab.
func (sh *shard) newState() *sessionState {
	if len(sh.slab) == 0 {
		sh.slab = make([]sessionState, stateSlab)
	}
	st := &sh.slab[0]
	sh.slab = sh.slab[1:]
	return st
}

// newSession clones the template at a seed offset, adaptive or fixed
// per the serving configuration, sharing the server's excitation pool.
func (s *Server) newSession(seedOffset int64) (*core.Session, error) {
	cfg := s.cfg.Link
	cfg.Seed += seedOffset
	var sess *core.Session
	var err error
	if s.cfg.Adapt {
		sess, err = core.NewAdaptiveSession(cfg, s.cfg.CoherenceRho, s.cfg.MaxRetries, adapt.Config{}, s.cfg.AdaptMinSymbolRateHz)
	} else {
		sess, err = core.NewSession(cfg, s.cfg.CoherenceRho, s.cfg.MaxRetries)
	}
	if err != nil {
		return nil, err
	}
	sess.Link().SetSlotPool(s.pool)
	return sess, nil
}

// newMultiSession clones the template into a tags-wide multi-tag
// session at a seed offset. Like single-tag sessions it shares the
// server's slot pool: the excitation templates are a pure function of
// the burst shape, so sharing keeps outcomes identical while 100k
// sessions retain one template set instead of 100k private buffers
// (DESIGN.md §5i).
func (s *Server) newMultiSession(seedOffset int64, tags int) (*core.MultiTagSession, error) {
	cfg := s.cfg.Link
	cfg.Seed += seedOffset
	return core.NewMultiTagSession(core.MultiTagSessionConfig{
		Link:     cfg,
		Tags:     tags,
		Impostor: s.cfg.MultiTagImpostor,
		Pool:     s.pool,
	})
}

// sessionLadder is the configuration ladder every session of this
// daemon walks (or would walk): the standard set at the template's
// preamble/id, above the configured rate floor, in adapt order.
func sessionLadder(cfg Config) []tag.Config {
	all := core.StandardConfigs(cfg.Link.Tag.PreambleChips, cfg.Link.Tag.ID)
	kept := all[:0]
	for _, c := range all {
		if c.SymbolRateHz >= cfg.AdaptMinSymbolRateHz {
			kept = append(kept, c)
		}
	}
	return adapt.Ladder(kept)
}

// setDegraded flips a session's watchdog mode and forces (or lifts)
// the robust configuration. With a controller the forcing goes through
// SetCeiling so it lands in the switch trace; without one the previous
// configuration is saved and restored directly.
func (sh *shard) setDegraded(st *sessionState, on bool) {
	m := &sh.srv.m
	st.degraded = on
	st.hot, st.cool = 0, 0
	if on {
		m.degraded.Add(1)
		m.degradeEnter.Inc()
	} else {
		m.degraded.Add(-1)
		m.degradeExit.Inc()
	}
	apply := func(c tag.Config) {
		if c == st.sess.Link().Tag.Cfg {
			return
		}
		if err := st.sess.SetTagConfig(c); err == nil {
			st.sess.Stats.ConfigSwitches++
		}
	}
	if ctrl := st.sess.Controller; ctrl != nil {
		target := sh.srv.ladderTop
		if on {
			target = 0
		}
		if next, changed := ctrl.SetCeiling(target); changed {
			apply(next)
		}
		return
	}
	if on {
		st.savedTag = st.sess.Link().Tag.Cfg
		apply(sh.srv.robust)
		return
	}
	apply(st.savedTag)
}

// wireSessionStats / coreSessionStats convert between the core stats
// and their wire mirror. BitRateBps is serve-derived (not core state)
// and stays zero here; the OpStats arm fills it separately.
func wireSessionStats(s core.SessionStats) SessionStats {
	return SessionStats{
		FramesOffered:   s.FramesOffered,
		FramesDelivered: s.FramesDelivered,
		PacketsSent:     s.PacketsSent,
		PayloadBits:     s.PayloadBits,
		AirtimeSec:      s.AirtimeSec,
		ACKsDropped:     s.ACKsDropped,
		NoWakes:         s.NoWakes,
		Backoffs:        s.Backoffs,
		BackoffSec:      s.BackoffSec,
		ConfigSwitches:  s.ConfigSwitches,
	}
}

func coreSessionStats(s SessionStats) core.SessionStats {
	return core.SessionStats{
		FramesOffered:   s.FramesOffered,
		FramesDelivered: s.FramesDelivered,
		PacketsSent:     s.PacketsSent,
		PayloadBits:     s.PayloadBits,
		AirtimeSec:      s.AirtimeSec,
		ACKsDropped:     s.ACKsDropped,
		NoWakes:         s.NoWakes,
		Backoffs:        s.Backoffs,
		BackoffSec:      s.BackoffSec,
		ConfigSwitches:  s.ConfigSwitches,
	}
}

// captureHandoff snapshots a session into the wire HandoffState that
// rides on a decode or tag_dark answer (Config.Handoff).
func (sh *shard) captureHandoff(st *sessionState) *HandoffState {
	snap := st.sess.Snapshot()
	hs := &HandoffState{
		Version:     HandoffVersion,
		Attempts:    snap.Attempts,
		Seq:         st.seq,
		TimelineCur: st.timelineCur,
		HEnv:        wireTaps(snap.HEnv),
		HF:          wireTaps(snap.HF),
		HB:          wireTaps(snap.HB),
		Stats:       wireSessionStats(snap.Stats),
		WDHot:       st.hot,
		WDCool:      st.cool,
		Degraded:    st.degraded,
	}
	if c := snap.Ctrl; c != nil {
		wc := CtrlState(*c)
		hs.Ctrl = &wc
	}
	if st.tank != nil {
		hs.Energy = &EnergyState{Tank: st.tank.Snapshot(), DarkStreak: st.darkStreak, DarkSec: st.darkSec, Liveness: st.liveness}
	}
	return hs
}

// installHandoff realizes a snapshot taken on another node in O(1):
// build a fresh session (and tank) for the id, apply the fault profile
// of the snapshot's timeline cursor once, then copy in the snapshot's
// channel, controller, watchdog and energy state. The installed
// session's next decode continues the origin's stream byte-identically
// (DESIGN.md §5j). Every field is untrusted and checked first; a
// rejected install leaves the id's current state alone. Runs on the
// shard worker like any job, so it is ordered against the session's
// decodes.
func (sh *shard) installHandoff(st *sessionState, j *job) Response {
	cfg := &sh.srv.cfg
	m := &sh.srv.m
	reject := func(format string, args ...any) Response {
		m.handoffRej.Inc()
		return Response{Code: CodeBadRequest, Session: j.session,
			Error: fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...).Error()}
	}
	fail := func(err error) Response {
		m.handoffRej.Inc()
		return Response{Code: CodeError, Session: j.session, Error: err.Error()}
	}
	hs := j.handoff
	if !cfg.Handoff {
		return reject("handoff not enabled on this node")
	}
	if st.multi != nil {
		return reject("session is a %d-tag group; groups are not portable", st.multi.Tags())
	}
	if (hs.Ctrl != nil) != cfg.Adapt || (hs.Energy != nil) != cfg.Energy {
		return reject("controller state %v / energy state %v do not match node adaptation %v / energy %v",
			hs.Ctrl != nil, hs.Energy != nil, cfg.Adapt, cfg.Energy)
	}
	// The counters must describe a session this node's retry budget
	// could have produced (written so that no product can overflow).
	if hs.Stats.PacketsSent > hs.Attempts || hs.Attempts > 0 && (hs.Attempts-1)/(cfg.MaxRetries+1) >= hs.Stats.FramesOffered {
		return reject("snapshot counters inconsistent: %d packets sent, %d attempts, %d frames at %d retries",
			hs.Stats.PacketsSent, hs.Attempts, hs.Stats.FramesOffered, cfg.MaxRetries)
	}
	// The decode arm advances the cursor on frame FramesOffered−1 last,
	// so every consumed step is due by then and the next one is not.
	steps, cur, last := cfg.Timeline.Steps(), hs.TimelineCur, hs.Stats.FramesOffered-1
	if cur > len(steps) || cur > 0 && steps[cur-1].Frame > last || cur < len(steps) && steps[cur].Frame <= last {
		return reject("timeline cursor %d does not match %d offered frames — nodes run different timelines", cur, hs.Stats.FramesOffered)
	}
	seed := sessionSeed(j.session)
	sess, err := sh.srv.newSession(seed)
	if err != nil {
		return fail(err)
	}
	// The decode arm switched the profile once per frame that crossed
	// steps, so the link's fault epoch is the number of distinct step
	// frames consumed. The last step's profile sets the fault injector
	// and the evolver's ρ; the restored epoch then salts the stream.
	epoch := 0
	for i := range cur {
		if i == 0 || steps[i].Frame != steps[i-1].Frame {
			epoch++
		}
	}
	if cur > 0 {
		_, p, _ := cfg.Timeline.Advance(cur-1, steps[cur-1].Frame)
		if err := sess.SetFaultProfile(p); err != nil {
			return fail(err)
		}
	}
	snap := core.SessionSnapshot{Attempts: hs.Attempts, Stats: coreSessionStats(hs.Stats), FaultEpoch: epoch,
		HEnv: coreTaps(hs.HEnv), HF: coreTaps(hs.HF), HB: coreTaps(hs.HB)}
	if c := hs.Ctrl; c != nil {
		cs := adapt.State(*c)
		snap.Ctrl = &cs
	}
	if err := sess.RestoreSnapshot(snap); err != nil {
		return reject("restore: %v", err)
	}
	var tank *energy.Tank
	if e := hs.Energy; e != nil {
		if tank, err = sh.srv.newTank(seed); err != nil {
			return fail(err)
		}
		if err := tank.Restore(e.Tank); err != nil {
			return reject("restore: %v", err)
		}
	}
	// Watchdog mode travels with the session. An adaptive session's
	// degraded forcing lives in the restored controller ceiling; a
	// fixed session needs the robust rung applied directly. Neither
	// counts a ConfigSwitch — the origin node already counted it and
	// the snapshot stats carry it.
	saved := sess.Link().Tag.Cfg
	if hs.Degraded && sess.Controller == nil {
		if err := sess.SetTagConfig(sh.srv.robust); err != nil {
			return reject("degraded config: %v", err)
		}
	}
	if st.degraded != hs.Degraded {
		if hs.Degraded {
			m.degraded.Add(1)
		} else {
			m.degraded.Add(-1)
		}
	}
	st.sess, st.tank = sess, tank
	st.seq = hs.Seq
	st.timelineCur = hs.TimelineCur
	st.hot, st.cool = hs.WDHot, hs.WDCool
	st.degraded = hs.Degraded
	st.savedTag = saved
	if e := hs.Energy; e != nil {
		st.darkStreak, st.darkSec = e.DarkStreak, e.DarkSec
		st.liveness, st.livenessSet = e.Liveness, true
	}
	m.handoffOK.Inc()
	cfg.Flight.Record(obs.FlightHandoffInstall, j.session,
		fmt.Sprintf("installed at frame %d (attempts %d, seq %d, degraded %v)",
			hs.Stats.FramesOffered, hs.Attempts, hs.Seq, hs.Degraded), j.tctx.ID())
	return Response{OK: true, Code: CodeOK, Session: j.session, Seq: st.seq}
}

// serveJob answers one job against its session. Panics are isolated to
// the job: the session's shard keeps serving (CodeError response,
// outcome=panic counter).
func (sh *shard) serveJob(st *sessionState, j *job) {
	m := &sh.srv.m
	defer func() {
		if r := recover(); r != nil {
			m.jobsPanic.Inc()
			sh.srv.cfg.Flight.Anomaly(obs.FlightJobPanic, j.session, fmt.Sprint(r), j.tctx.ID())
			sh.srv.cfg.SLO.Record(false, time.Since(j.enqueued).Seconds())
			j.respond(Response{Code: CodeError, Error: fmt.Sprintf("serve: decode panic: %v", r), Session: j.session})
		}
	}()
	m.stageWait.Observe(time.Since(j.enqueued).Seconds())
	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		// Deadline rejection happens before the job touches session
		// state, so a timed-out job never perturbs the session's
		// deterministic decode stream.
		m.jobsDeadline.Inc()
		if j.op == OpDecode || j.op == OpMultiDecode {
			sh.srv.cfg.SLO.Record(false, time.Since(j.enqueued).Seconds())
		}
		j.respond(Response{Code: CodeDeadline, Error: ErrDeadline.Error(), Session: j.session})
		return
	}
	switch j.op {
	case OpStats:
		j.respond(sh.stats(st, j))
	case OpDecode, OpMultiDecode:
		j.respond(sh.decode(st, j))
	case OpHandoff:
		j.respond(sh.installHandoff(st, j))
	default:
		j.respond(Response{Code: CodeBadRequest, Error: fmt.Sprintf("serve: unknown op %q", j.op), Session: j.session})
	}
}

// stats answers a stats job without realizing anything. A group
// reports the single-tag shape synthesized from slot outcomes: a
// tag-frame is a frame and a slot is one packet (one excitation). An
// id with no session yet reports a fresh session's zero stats.
func (sh *shard) stats(st *sessionState, j *job) Response {
	cfg := &sh.srv.cfg
	ws := new(SessionStats)
	rated := cfg.Adapt || cfg.WatchdogAfter > 0
	switch {
	case st.multi != nil:
		ms := st.multi.Stats
		*ws = SessionStats{
			FramesOffered:   ms.TagsPolled,
			FramesDelivered: ms.TagsDelivered,
			PacketsSent:     ms.SlotsOffered,
			PayloadBits:     ms.PayloadBits,
			AirtimeSec:      ms.AirtimeSec,
		}
	case st.sess != nil:
		*ws = wireSessionStats(st.sess.Stats)
		if rated {
			ws.BitRateBps = st.sess.Link().Tag.Cfg.BitRate()
		}
	case rated:
		ws.BitRateBps = sh.srv.freshBitRate
	}
	return Response{OK: true, Code: CodeOK, Session: j.session, Seq: st.seq, Degraded: st.degraded, Stats: ws}
}

// bind realizes the id's core session on its first decode — a
// single-tag session (plus its tank in energy mode) for decode, a
// len(payloads)-tag group for mdecode — and checks every later decode
// against that kind and group size. A mismatch returns the bad_request
// message and leaves the session alone; err is a failure to realize.
// The seed derives from the id alone (plus the template seed), so the
// same id opens the same session stream under any shard count.
func (sh *shard) bind(st *sessionState, j *job) (bad string, err error) {
	seed := sessionSeed(j.session)
	switch {
	case st.sess == nil && st.multi == nil && j.op == OpDecode:
		sess, err := sh.srv.newSession(seed)
		if err != nil {
			return "", fmt.Errorf("serve: open session %q: %w", j.session, err)
		}
		if sh.srv.cfg.Energy {
			if st.tank, err = sh.srv.newTank(seed); err != nil {
				return "", fmt.Errorf("serve: open tank %q: %w", j.session, err)
			}
		}
		st.sess = sess
	case st.sess == nil && st.multi == nil:
		if st.multi, err = sh.srv.newMultiSession(seed, len(j.payloads)); err != nil {
			return "", fmt.Errorf("serve: open multi-tag session %q: %w", j.session, err)
		}
	case j.op == OpDecode && st.sess == nil:
		return fmt.Sprintf("serve: session %q is a %d-tag group; decode it with mdecode", j.session, st.multi.Tags()), nil
	case j.op == OpMultiDecode && st.multi == nil:
		return fmt.Sprintf("serve: session %q is single-tag; decode it with decode", j.session), nil
	case j.op == OpMultiDecode && len(j.payloads) != st.multi.Tags():
		return fmt.Sprintf("serve: slot carries %d payloads; session group size was fixed at %d by its first mdecode", len(j.payloads), st.multi.Tags()), nil
	}
	return "", nil
}

// decode is the one decode arm of decode and mdecode: energy gate,
// head sampling and the fault timeline on the session's offered-frame
// index, one decode span around the core call (Send or SendSlot), then
// the Seq, SLO and response. Watchdog, energy drain and handoff
// snapshots are single-tag only.
func (sh *shard) decode(st *sessionState, j *job) Response {
	cfg := &sh.srv.cfg
	m := &sh.srv.m
	fail := func(err error) Response {
		m.jobsError.Inc()
		cfg.SLO.Record(false, time.Since(j.enqueued).Seconds())
		return Response{Code: CodeError, Error: err.Error(), Session: j.session}
	}
	if bad, err := sh.bind(st, j); bad != "" {
		return Response{Code: CodeBadRequest, Error: bad, Session: j.session}
	} else if err != nil {
		return fail(err)
	}
	// Energy gate first: a dark-tag poll must be answered before
	// anything below mutates the session (trace head-sampling reads
	// but does not mutate; the timeline advance and the decode do).
	// Dark polls deliberately skip the SLO too — the reader's error
	// budget should not burn because the tag has no energy.
	if st.tank != nil {
		if resp, dark := sh.energyGate(st, j); dark {
			return resp
		}
	}
	// The session's offered-frame index — frames for a single-tag
	// session, slots for a group — keys head sampling and the timeline.
	ctl, frame := linkCtl(st.multi), 0
	if st.sess != nil {
		ctl, frame = st.sess, st.sess.Stats.FramesOffered
	} else {
		frame = st.multi.Stats.SlotsOffered
	}
	// Resolve the job's trace context: a propagated client id wins;
	// otherwise head-sample deterministically on (session id, offered
	// frame index) — the same decision a tracing client at the same
	// frame would make, so sampled traces line up end to end. With no
	// tracer configured tctx stays zero and nothing below reads a
	// clock for tracing.
	tctx := j.tctx
	if cfg.Tracer != nil {
		if !tctx.Enabled() {
			tctx = cfg.Tracer.Head(j.session, frame)
		}
		j.tctx = tctx
		if tctx.Enabled() {
			// The queue-wait and batch stages ended before the sampling
			// decision existed; record them retroactively.
			now := time.Now()
			if !j.batchStart.IsZero() {
				tctx.Record("queue_wait", j.enqueued, j.batchStart.Sub(j.enqueued))
				tctx.Record("batch", j.batchStart, now.Sub(j.batchStart))
			} else {
				tctx.Record("queue_wait", j.enqueued, now.Sub(j.enqueued))
			}
		}
		ctl.SetTrace(tctx)
	}
	// Scripted chaos: cross any timeline steps due at this frame index
	// before the exchange. The index is the session's own offered-frame
	// count, so the script lands on the same frames under any shard or
	// worker count.
	if cur, p, switched := cfg.Timeline.Advance(st.timelineCur, frame); switched {
		st.timelineCur = cur
		if err := ctl.SetFaultProfile(p); err != nil {
			return fail(err)
		}
		m.faultSwitch.Inc()
		cfg.Flight.Record(obs.FlightFaultSwitch, j.session,
			fmt.Sprintf("timeline step %d at frame %d", st.timelineCur, frame), tctx.ID())
	}
	var (
		before    core.SessionStats
		res       *core.PacketResult
		slot      *core.SlotResult
		delivered bool
		err       error
	)
	tsp := tctx.Start("decode")
	sp := m.stageDecode.Start()
	if st.sess != nil {
		before = st.sess.Stats
		res, delivered, err = st.sess.Send(j.payloads[0])
	} else {
		slot, err = st.multi.SendSlot(j.payloads)
	}
	sp.End()
	tsp.End()
	if err != nil {
		return fail(err)
	}
	st.seq++
	resp := Response{OK: true, Code: CodeOK, Session: j.session, Seq: st.seq}
	if st.sess != nil {
		sh.afterSend(st, j, tctx, res, before, delivered, &resp)
	} else {
		delivered = slot.Delivered == len(j.payloads)
		resp.Delivered, resp.Attempts = delivered, 1
		resp.Tags = make([]TagResult, len(slot.Results))
		for k, pr := range slot.Results {
			t := &resp.Tags[k]
			t.Woke = slot.Woke[k]
			if pr != nil {
				t.Delivered = pr.Delivered
				t.PayloadOK = pr.PayloadOK
				t.SNRdB = pr.MeasuredSNRdB
			}
		}
	}
	m.jobsDone.Inc()
	cfg.SLO.Record(delivered, time.Since(j.enqueued).Seconds())
	return resp
}

// afterSend is the single-tag tail of the decode arm: feed the SIC
// watchdog, drain the frame's energy, record ladder moves, and fill
// the frame's response fields and handoff snapshot.
func (sh *shard) afterSend(st *sessionState, j *job, tctx obs.TraceCtx, res *core.PacketResult, before core.SessionStats, delivered bool, resp *Response) {
	cfg := &sh.srv.cfg
	// SIC-health watchdog: a residual stuck above the threshold means
	// the canceller is leaking and every decode at the current rate is
	// suspect — force the robust rung until it clears. All-no-wake
	// exchanges (res == nil) carry no residual measurement and leave
	// the watchdog state untouched.
	if cfg.WatchdogAfter > 0 && res != nil {
		if res.SICResidualDBm > cfg.WatchdogResidualDBm {
			st.hot, st.cool = st.hot+1, 0
		} else {
			st.cool, st.hot = st.cool+1, 0
		}
		if !st.degraded && st.hot >= cfg.WatchdogAfter {
			sh.setDegraded(st, true)
			// A watchdog trip is an anomaly: record it with the frame's
			// trace id (linking the dump to the sampled trace) and
			// auto-dump the flight ring if a path is armed.
			cfg.Flight.Anomaly(obs.FlightWatchdogTrip, j.session,
				fmt.Sprintf("residual %.1f dBm above %.1f dBm for %d frames", res.SICResidualDBm, cfg.WatchdogResidualDBm, cfg.WatchdogAfter), tctx.ID())
		} else if st.degraded && st.cool >= cfg.WatchdogRecover {
			sh.setDegraded(st, false)
			cfg.Flight.Record(obs.FlightWatchdogClear, j.session,
				fmt.Sprintf("healthy for %d frames", cfg.WatchdogRecover), tctx.ID())
		}
	}
	after := st.sess.Stats
	if st.tank != nil {
		sh.energyDrain(st, after.AirtimeSec-before.AirtimeSec)
	}
	if d := after.ConfigSwitches - before.ConfigSwitches; d > 0 {
		sh.srv.m.cfgSwitch.Add(int64(d))
		cfg.Flight.Record(obs.FlightConfigSwitch, j.session,
			fmt.Sprintf("%d ladder moves, now %.0f bps", d, st.sess.Link().Tag.Cfg.BitRate()), tctx.ID())
	}
	resp.Delivered = delivered
	resp.Attempts = after.PacketsSent - before.PacketsSent
	resp.NoWakes = after.NoWakes - before.NoWakes
	resp.ACKsDropped = after.ACKsDropped - before.ACKsDropped
	resp.Degraded = st.degraded
	if res != nil {
		resp.PayloadOK = res.PayloadOK
		resp.SNRdB = res.MeasuredSNRdB
	}
	if cfg.Handoff {
		resp.Handoff = sh.captureHandoff(st)
	}
}

// sessionSeed hashes a session id into its seed offset.
func sessionSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64())
}

// serverMetrics caches the serving instruments; all fields are nil
// (no-op) without a registry.
type serverMetrics struct {
	jobsAdmitted *obs.Counter
	jobsRejFull  *obs.Counter
	jobsRejDrain *obs.Counter
	jobsDeadline *obs.Counter
	jobsDone     *obs.Counter
	jobsError    *obs.Counter
	jobsPanic    *obs.Counter
	stageWait    *obs.Histogram
	stageDecode  *obs.Histogram
	batchJobs    *obs.Histogram
	sessions     *obs.Gauge
	evictions    *obs.Counter
	conns        *obs.Counter
	connPanics   *obs.Counter
	degraded     *obs.Gauge
	degradeEnter *obs.Counter
	degradeExit  *obs.Counter
	faultSwitch  *obs.Counter
	cfgSwitch    *obs.Counter
	handoffOK    *obs.Counter
	handoffRej   *obs.Counter
	darkAsleep   *obs.Counter
	darkBackoff  *obs.Counter

	// Wire-protocol instruments, one set per negotiated protocol.
	json, bin wireMetrics
}

// wireMetrics is one wire protocol's instruments: accepted
// connections, bytes each way, and per-frame codec latency.
type wireMetrics struct {
	conns, rx, tx *obs.Counter
	enc, dec      *obs.Histogram
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	if r == nil {
		return serverMetrics{}
	}
	outcome := func(name string) *obs.Counter {
		return r.Counter(obs.MetricServeJobs, "Decode-job admission outcomes.", "outcome", name)
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram(obs.MetricServeJobStage, "Per-stage serving latency.", obs.LatencyBuckets, "stage", name)
	}
	wire := func(proto string) wireMetrics {
		bytes := func(dir string) *obs.Counter {
			return r.Counter(obs.MetricServeWireBytes, "Bytes on the serve wire, by direction and protocol.", "dir", dir, "proto", proto)
		}
		codec := func(op string) *obs.Histogram {
			return r.Histogram(obs.MetricServeFrameCodec, "Per-frame encode/decode latency by protocol.", obs.LatencyBuckets, "op", op, "proto", proto)
		}
		return wireMetrics{
			conns: r.Counter(obs.MetricServeConnsProto, "Accepted connections by negotiated protocol.", "proto", proto),
			rx:    bytes("rx"),
			tx:    bytes("tx"),
			enc:   codec("encode"),
			dec:   codec("decode"),
		}
	}
	return serverMetrics{
		jobsAdmitted: outcome("admitted"),
		jobsRejFull:  outcome("rejected_full"),
		jobsRejDrain: outcome("rejected_draining"),
		jobsDeadline: outcome("deadline"),
		jobsDone:     outcome("done"),
		jobsError:    outcome("error"),
		jobsPanic:    outcome("panic"),
		stageWait:    stage("queue_wait"),
		stageDecode:  stage("decode"),
		batchJobs:    r.Histogram(obs.MetricServeBatchJobs, "Jobs per shard batch.", obs.LinBuckets(1, 1, 32)),
		sessions:     r.Gauge(obs.MetricServeSessions, "Live reader sessions."),
		evictions:    r.Counter(obs.MetricServeEvictions, "Idle sessions reclaimed by the per-shard TTL sweep."),
		conns:        r.Counter(obs.MetricServeConns, "Accepted TCP connections."),
		connPanics:   r.Counter(obs.MetricServeConnPanics, "Connection handlers recovered from a panic."),
		degraded:     r.Gauge(obs.MetricServeDegraded, "Sessions held in degraded mode by the SIC-health watchdog."),
		degradeEnter: r.Counter(obs.MetricServeDegradedTrans, "Degraded-mode transitions.", "dir", "enter"),
		degradeExit:  r.Counter(obs.MetricServeDegradedTrans, "Degraded-mode transitions.", "dir", "exit"),
		faultSwitch:  r.Counter(obs.MetricServeFaultSwitches, "Scripted fault-profile switches applied to sessions."),
		cfgSwitch:    r.Counter(obs.MetricServeConfigSwitches, "Rate-controller ladder moves applied to sessions."),
		handoffOK:    r.Counter(obs.MetricServeHandoffs, "Handoff snapshots installed, by outcome.", "outcome", "ok"),
		handoffRej:   r.Counter(obs.MetricServeHandoffs, "Handoff snapshots installed, by outcome.", "outcome", "rejected"),
		darkAsleep:   r.Counter(obs.MetricServeDarkPolls, "Polls answered tag_dark without spending a decode, by reason.", "reason", "asleep"),
		darkBackoff:  r.Counter(obs.MetricServeDarkPolls, "Polls answered tag_dark without spending a decode, by reason.", "reason", "backoff"),
		json:         wire("json"),
		bin:          wire("binary"),
	}
}

// Server is a running reader daemon.
type Server struct {
	cfg    Config
	ln     net.Listener
	shards []*shard

	shardWg sync.WaitGroup
	connWg  sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	draining atomic.Bool
	shutdown sync.Once

	// robust is the most robust rung of the template's configuration
	// ladder — the watchdog's degraded-mode target — and ladderTop the
	// ceiling index that re-opens the full ladder on recovery.
	robust    tag.Config
	ladderTop int
	// freshBitRate is a fresh session's tag bit rate, which stats
	// reports for an id with no session yet when the rate can move.
	freshBitRate float64

	// pool shares excitation templates across every session the daemon
	// opens (SlotPool is internally locked; one pool serves all shards).
	pool *core.SlotPool

	m serverMetrics
}

// NewServer validates the configuration and builds a daemon. Call
// Start to listen.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Link.Obs == nil {
		cfg.Link.Obs = cfg.Obs
	}
	s := &Server{
		cfg:   cfg,
		conns: map[net.Conn]struct{}{},
		m:     newServerMetrics(cfg.Obs),
		pool:  core.NewSlotPool(cfg.Link.Seed),
	}
	// The ladder is a pure function of the template's preamble/id, so
	// every session shares it; resolve the degraded-mode target once.
	ladder := sessionLadder(cfg)
	if len(ladder) == 0 {
		return nil, fmt.Errorf("serve: adaptation rate floor %v Hz leaves an empty ladder", cfg.AdaptMinSymbolRateHz)
	}
	s.robust = ladder[0]
	s.ladderTop = len(ladder) - 1
	// Realize the template once so configuration errors (link and
	// controller alike) surface at construction, not on the first
	// decode of some future session.
	tmpl, err := s.newSession(0)
	if err != nil {
		return nil, fmt.Errorf("serve: link template: %w", err)
	}
	s.freshBitRate = tmpl.Link().Tag.Cfg.BitRate()
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{
			srv:      s,
			id:       i,
			q:        make(chan *job, cfg.QueueDepth),
			sessions: map[string]*sessionState{},
			depthG:   cfg.Obs.Gauge(obs.MetricServeQueueDepth, "Queued jobs per shard.", "shard", strconv.Itoa(i)),
			liveG:    cfg.Obs.Gauge(obs.MetricTagLiveness, "Per-shard mean tag-liveness EWMA.", "shard", strconv.Itoa(i)),
		}
	}
	return s, nil
}

// Start begins listening on cfg.Addr and serving connections; it
// returns once the listener is bound (use Addr for the resolved
// address).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	for _, sh := range s.shards {
		s.shardWg.Add(1)
		go sh.run()
	}
	s.connWg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *Server) acceptLoop() {
	defer s.connWg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown)
		}
		s.m.conns.Inc()
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWg.Add(1)
		go s.handleConn(c)
	}
}

// handleConn serves one connection's request stream sequentially —
// pipelining within a connection would reorder one session's jobs,
// breaking the determinism contract; concurrency comes from many
// connections. A panic anywhere in the handler is isolated to this
// connection.
//
// The first byte picks the protocol: 'B' (0x42) opens the binary
// negotiation preamble, anything else — in practice 0x00, the high
// byte of a JSON frame's big-endian length — serves the legacy JSON
// stream byte-identically.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.m.connPanics.Inc()
			s.cfg.Flight.Anomaly(obs.FlightConnPanic, "", fmt.Sprint(r), 0)
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	var codec wireCodec
	if first[0] == binPreamble[0] {
		if !negotiate(br, bw) {
			return
		}
		codec.bin = true
	}
	s.serveConn(br, bw, &codec)
}

// negotiate validates a binary connection's preamble and echoes the
// server's own (the version handshake). The echo goes out whether or
// not the versions match: the client reads it and decides. On skew the
// connection closes after the echo, so the client surfaces a version
// error rather than a framing one.
func negotiate(br *bufio.Reader, bw *bufio.Writer) bool {
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return false
	}
	if pre[0] != binPreamble[0] || pre[1] != binPreamble[1] || pre[2] != binPreamble[2] {
		return false
	}
	if _, err := bw.Write(binPreamble[:]); err != nil {
		return false
	}
	if err := bw.Flush(); err != nil {
		return false
	}
	return pre[3] == binVersion
}

// serveConn is the request loop of both wire protocols. The frame read
// buffer and the pooled response buffer are reused across the
// connection's frames, and a binary codec also reuses its request and
// session intern table, so the binary steady state decodes and encodes
// without heap allocation. Payload aliasing is safe because dispatch
// blocks until the job answered — the next frame is not read while a
// job still references the buffer.
func (s *Server) serveConn(br *bufio.Reader, bw *bufio.Writer, codec *wireCodec) {
	wm := &s.m.json
	if codec.bin {
		wm = &s.m.bin
	}
	wm.conns.Inc()
	fr := codec.reader(br)
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	// reply writes resp as one frame; false means the connection is done.
	reply := func(resp *Response) bool {
		t0 := time.Now()
		b, err := codec.appendResponse(append((*buf)[:0], 0, 0, 0, 0), resp)
		wm.enc.Observe(time.Since(t0).Seconds())
		if err != nil || len(b)-4 > MaxFrameBytes {
			return false
		}
		*buf = b
		if _, err := bw.Write(codec.finishFrame(b)); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		wm.tx.Add(int64(len(b)))
		return true
	}
	traced := s.cfg.Tracer != nil
	for {
		var readStart time.Time
		if traced {
			readStart = time.Now()
		}
		body, err := fr.read()
		if err != nil {
			// A malformed-but-framed request gets a typed answer before
			// the connection drops; transport errors (EOF) just close.
			if errors.Is(err, ErrBadRequest) {
				reply(&Response{Code: CodeBadRequest, Error: err.Error()})
			}
			return
		}
		wm.rx.Add(int64(len(body)) + 4)
		t0 := time.Now()
		req, err := codec.decodeRequest(body)
		wm.dec.Observe(time.Since(t0).Seconds())
		if err != nil {
			reply(&Response{Code: CodeBadRequest, Error: err.Error()})
			return
		}
		var readDur time.Duration
		if traced {
			readDur = time.Since(readStart)
		}
		resp, tctx := s.dispatch(req)
		// The read span predates the sampling decision; record it
		// retroactively against the job's resolved context.
		tctx.Record("conn_read", readStart, readDur)
		wsp := tctx.Start("resp_write")
		if !reply(&resp) {
			return
		}
		wsp.End()
	}
}

// dispatch validates one request, admits it to its session's shard,
// and waits for the result. It also returns the job's resolved trace
// context, read back after the response-channel receive (which orders
// serveJob's head-sampling write), so the connection loop can attach
// its conn_read / resp_write spans to the same trace.
func (s *Server) dispatch(req *Request) (Response, obs.TraceCtx) {
	tctx := s.cfg.Tracer.Join(req.Trace)
	switch req.Op {
	case OpPing:
		return Response{OK: true, Code: CodeOK}, tctx
	case OpDecode, OpStats, OpMultiDecode, OpHandoff:
	default:
		return Response{Code: CodeBadRequest, Error: fmt.Sprintf("serve: unknown op %q", req.Op)}, tctx
	}
	if req.Session == "" {
		return Response{Code: CodeBadRequest, Error: "serve: missing session id"}, tctx
	}
	bad := func(msg string) (Response, obs.TraceCtx) {
		return Response{Code: CodeBadRequest, Error: msg, Session: req.Session}, tctx
	}
	j := &job{
		op:       req.Op,
		session:  req.Session,
		payloads: req.Payloads,
		handoff:  req.Handoff,
		tctx:     tctx,
	}
	decode := req.Op == OpDecode || req.Op == OpMultiDecode
	if req.Op == OpDecode {
		j.one[0] = req.Payload
		j.payloads = j.one[:]
	}
	if req.Op == OpHandoff {
		if err := req.Handoff.Validate(); err != nil {
			return bad(err.Error())
		}
	}
	if decode {
		if len(j.payloads) == 0 {
			return bad("serve: empty payload group")
		}
		if len(j.payloads) > s.cfg.MultiTagMax {
			return bad(fmt.Sprintf("serve: %d payloads exceeds the %d-tag bound", len(j.payloads), s.cfg.MultiTagMax))
		}
		for _, p := range j.payloads {
			if len(p) > 0 {
				continue
			}
			if req.Op == OpDecode {
				return bad("serve: empty payload")
			}
			return bad("serve: empty payload in group")
		}
	}
	if s.draining.Load() {
		s.m.jobsRejDrain.Inc()
		if decode {
			s.cfg.SLO.Record(false, 0)
		}
		return Response{Code: CodeDraining, Error: ErrDraining.Error(), Session: req.Session}, tctx
	}
	j.enqueued = time.Now()
	j.resp = make(chan Response, 1)
	timeout := s.cfg.JobTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		j.deadline = j.enqueued.Add(timeout)
	}
	sh := s.shards[shardOf(req.Session, len(s.shards))]
	if err := sh.enqueue(j); err != nil {
		code := CodeQueueFull
		ctr := s.m.jobsRejFull
		if err == ErrDraining {
			code = CodeDraining
			ctr = s.m.jobsRejDrain
		}
		ctr.Inc()
		if decode {
			s.cfg.SLO.Record(false, time.Since(j.enqueued).Seconds())
		}
		return Response{Code: code, Error: err.Error(), Session: req.Session}, tctx
	}
	s.m.jobsAdmitted.Inc()
	resp := <-j.resp
	return resp, j.tctx
}

// shardOf maps a session id onto its shard.
func shardOf(id string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(shards))
}

// Draining reports whether Shutdown has begun — the readiness signal
// behind a drain-aware /readyz.
func (s *Server) Draining() bool { return s.draining.Load() }

// Sessions reports the live session count across all shards — the
// value behind the backfi_serve_sessions gauge, readable without a
// registry.
func (s *Server) Sessions() int {
	var n int64
	for _, sh := range s.shards {
		n += sh.nsessions.Load()
	}
	return int(n)
}

// Evictions reports how many idle sessions the TTL sweeps have
// reclaimed since start.
func (s *Server) Evictions() int {
	var n int64
	for _, sh := range s.shards {
		n += sh.nevicted.Load()
	}
	return int(n)
}

// Shutdown drains the daemon gracefully: stop accepting connections,
// reject new jobs with ErrDraining, let every admitted job finish (or
// hit its deadline), then close remaining connections. The context —
// capped by cfg.DrainTimeout — bounds the wait; on expiry the error is
// returned and remaining work is abandoned. Safe to call once; later
// calls return nil without acting.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdown.Do(func() {
		ctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
		defer cancel()
		s.stop(false)
		err = waitCtx(ctx, &s.shardWg)
		// Every admitted job has answered (or drain timed out); drop
		// the connections so handlers unblock from their reads.
		s.closeConns()
		if werr := waitCtx(ctx, &s.connWg); err == nil {
			err = werr
		}
	})
	return err
}

// Kill hard-stops the daemon: the listener and every live connection
// close immediately, nothing drains, and clients see broken
// connections mid-stream — the crash the cluster chaos harness needs
// to exercise failover, as opposed to Shutdown's graceful typed
// ErrDraining rejections (which a well-behaved client would never
// treat as a node failure). Queued jobs are abandoned; shard workers
// exit after flushing their queues to nowhere. Shares Shutdown's
// once-guard, so Kill then Shutdown (or vice versa) acts once.
func (s *Server) Kill() {
	s.shutdown.Do(func() { s.stop(true) })
}

// stop marks the daemon draining, closes the listener, closes the
// live connections first when hard, and closes every shard queue.
func (s *Server) stop(hard bool) {
	s.draining.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	if hard {
		s.closeConns()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.draining = true
		close(sh.q)
		sh.mu.Unlock()
	}
}

// closeConns closes every live connection.
func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// waitCtx waits for wg, bounded by ctx.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
