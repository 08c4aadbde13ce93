package serve

// Energy-aware poll scheduler (DESIGN.md §5k). With Config.Energy on,
// every single-tag session carries a deterministic supercap tank
// (internal/energy.Tank) seeded from the session seed, and the daemon
// gates each decode poll on the tank's state:
//
//   - LIVE: the poll proceeds exactly as before — the gate touches
//     nothing the decode path depends on — and the frame's transmit
//     energy (TxPowerW × airtime) is drained from the tank afterward.
//   - DARK/WAKING: the poll is answered CodeTagDark without advancing
//     the session: no RNG draw, no evolver step, no timeline advance,
//     no Seq increment, no watchdog feed, no SLO sample. When the tag
//     banks back above the wake threshold, the session resumes its ARQ
//     state byte-identically — the dark episode is invisible to the
//     decode stream.
//
// Time is virtual and poll-driven, matching the rest of the serving
// determinism contract: one live poll advances the tank one slot (the
// fixed packet cadence, core.MobilityPacketIntervalSec); a dark-streak
// poll fast-forwards the tank through the scheduler's whole backoff
// window, so the reader's truncated-exponential probe backoff
// (core.BackoffPolicy, virtual-time accounting) is also the time the
// tag spends banking. Everything the gate does is a pure function of
// (session seed, poll ordinal, decode outcomes), so dark episodes land
// on the same polls under any shard or worker count.

import (
	"fmt"

	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/obs"
)

// livenessAlpha is the EWMA weight of one wake observation in the
// per-session liveness estimate (the probability that a poll finds the
// tag awake, reported as a per-shard mean on backfi_tag_liveness).
const livenessAlpha = 0.25

// DefaultEnergyTank is the serving tank template installed when
// Config.Energy is on and Config.EnergyTank is nil. It deliberately
// differs from energy.DefaultTankConfig: at the paper's 100 µW ambient
// harvest a tag spending ~1 nJ per served frame never goes dark (the
// sustainable-duty-cycle headroom is the paper's R2 result), so the
// serving preset scales the tank to the serving cadence — ~6 nJ banked
// per plentiful 5 ms slot against ~1–3 nJ drained per frame — which
// makes EnergySeverity sweep the full range from always-live (0) to
// hard duty-cycling (1). Harnesses that want scarcity to bite inside a
// short soak lower InitialJ on a copy (a partially banked cold start).
func DefaultEnergyTank() energy.TankConfig {
	return energy.TankConfig{
		CapacityJ:   40e-9,
		WakeJ:       20e-9,
		SleepJ:      4e-9,
		InitialJ:    40e-9,
		SlotSeconds: 5e-3,
		HarvestW:    1.2e-6,
		ScarceFrac:  0.02,
		LeakW:       2e-10,
	}
}

// DefaultEnergyBackoff is the dark-probe backoff of every energy-gated
// session: the k-th consecutive dark poll stands for Delay(k) seconds
// of virtual banking time (truncated binary exponential, accounted —
// never slept), 20 ms doubling to a 2.56 s ceiling. A dark session is
// protected from the TTL sweep until its streak's delay reaches the
// ceiling (see evict), so harnesses asserting that guard derive the
// ceiling streak from this same policy rather than hard-coding it.
func DefaultEnergyBackoff() core.BackoffPolicy {
	return core.BackoffPolicy{BaseSec: 0.02, MaxSec: 2.56}
}

// newTank realizes one session's supercap at the serving template,
// seeded like the session itself so the harvest trace is a pure
// function of the session id.
func (s *Server) newTank(seedOffset int64) (*energy.Tank, error) {
	tc := DefaultEnergyTank()
	if s.cfg.EnergyTank != nil {
		tc = *s.cfg.EnergyTank
	}
	tc.Seed = s.cfg.Link.Seed + seedOffset
	tc.Severity = s.cfg.EnergySeverity
	return energy.NewTank(tc)
}

// energyGate advances the session's virtual energy clock and decides
// whether this poll may spend a decode. Returns (response, true) for a
// dark poll — the caller answers it and must not touch the session —
// or (zero, false) when the tag is awake. Runs inside the shard batch
// on the goroutine owning this session; it mutates only sessionState.
func (sh *shard) energyGate(st *sessionState, j *job) (Response, bool) {
	cfg := &sh.srv.cfg
	m := &sh.srv.m
	// Advance virtual time: one slot per live-tag poll; a dark-streak
	// poll covers its whole backoff window so the silence the scheduler
	// bought is also banking time. Stepping stops early at LIVE so the
	// wake lands on the exact slot the threshold was crossed — still
	// deterministic, because the stop condition is itself a pure
	// function of the harvest trace.
	slots := 1
	if st.darkStreak > 0 {
		d := DefaultEnergyBackoff().Delay(st.darkStreak)
		st.darkSec += d
		if n := int(d / st.tank.Config().SlotSeconds); n > slots {
			slots = n
		}
	}
	for i := 0; i < slots; i++ {
		if st.tank.StepSlot() == energy.TankLive && i > 0 {
			break
		}
	}
	live := st.tank.State() == energy.TankLive
	obsv := 0.0
	if live {
		obsv = 1
	}
	if !st.livenessSet {
		st.liveness, st.livenessSet = obsv, true
	} else {
		st.liveness += livenessAlpha * (obsv - st.liveness)
	}
	if live {
		if st.darkStreak > 0 {
			cfg.Flight.Record(obs.FlightTagWake, j.session,
				fmt.Sprintf("woke after %d dark polls (%.0f ms backed off, %.3g J banked)",
					st.darkStreak, st.darkSec*1e3, st.tank.Snapshot().ChargeJ), j.tctx.ID())
			st.darkStreak = 0
		}
		return Response{}, false
	}
	// Dark: typed backpressure, session untouched. The first dark poll
	// of a streak observed the live→dark transition (reason asleep) and
	// leaves a flight event; later polls are the scheduler probing
	// through its backoff (reason backoff).
	if st.darkStreak == 0 {
		m.darkAsleep.Inc()
		cfg.Flight.Record(obs.FlightTagDark, j.session,
			fmt.Sprintf("supercap %.3g J below wake threshold %.3g J", st.tank.Snapshot().ChargeJ, st.tank.Config().WakeJ), j.tctx.ID())
	} else {
		m.darkBackoff.Inc()
	}
	st.darkStreak++
	resp := Response{Code: CodeTagDark, Error: ErrTagDark.Error(), Session: j.session, Seq: st.seq}
	if cfg.Handoff {
		// The poll moved the tank and the streak: a failover from here
		// must resume from this state, not the last decode's.
		resp.Handoff = sh.captureHandoff(st)
	}
	return resp, true
}

// energyDrain charges the frame's transmit energy against the tank:
// the active configuration's total backscatter power (internal/energy
// EPB model) times the frame's airtime, covering every ARQ attempt the
// exchange made. A drain may flip the tank LIVE→DARK; the next poll's
// gate observes the transition.
func (sh *shard) energyDrain(st *sessionState, airtimeSec float64) {
	if airtimeSec <= 0 {
		return
	}
	tc := st.sess.Link().Tag.Cfg
	p, err := energy.TxPowerW(tc.Mod, tc.Coding, tc.SymbolRateHz)
	if err != nil {
		return
	}
	st.tank.Drain(p * airtimeSec)
}

// updateLiveness publishes the shard's mean liveness estimate. Runs on
// the shard worker goroutine between batches (single-writer, like the
// eviction sweep) and only in energy mode, so the O(sessions) walk is
// never paid on the default path.
func (sh *shard) updateLiveness() {
	var sum float64
	n := 0
	for _, st := range sh.sessions {
		if st.tank != nil && st.livenessSet {
			sum += st.liveness
			n++
		}
	}
	if n > 0 {
		sh.liveG.Set(sum / float64(n))
	}
}
