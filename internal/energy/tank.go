package energy

import (
	"fmt"
	"math"

	"backfi/internal/rng"
)

// Supercap state machine for harvest-limited tags "in the wild"
// (GuardRider regime, DESIGN.md §5k). A real battery-free tag banks
// ambient-RF energy into a supercapacitor while idle and spends it in
// bursts while backscattering; when the cap runs down the tag goes
// DARK and stops answering polls until it has banked past a wake
// threshold again. The Tank models that loop deterministically: the
// harvest trace is a pure function of (Seed, slot index, Severity),
// drains are a pure function of the decode stream, so a tag's state
// at any poll slot is a pure function of (seed, frame) — replayable
// by any shard, worker, or node that applies the same slot/drain
// sequence.

// TankState is the tag's energy state.
type TankState int

const (
	// TankDark: the cap is below the wake threshold; the tag cannot
	// answer a poll and a decode attempt would be wasted airtime.
	TankDark TankState = iota
	// TankWaking: the cap has banked past WakeJ; the tag is booting
	// its radio and will answer polls from the next slot on.
	TankWaking
	// TankLive: the tag answers polls and pays transmit energy per
	// decode attempt.
	TankLive
)

// String returns the state's wire-friendly lowercase name.
func (s TankState) String() string {
	switch s {
	case TankDark:
		return "dark"
	case TankWaking:
		return "waking"
	case TankLive:
		return "live"
	default:
		return fmt.Sprintf("TankState(%d)", int(s))
	}
}

// TankConfig parameterizes a supercap tank. The zero value is not
// usable; start from DefaultTankConfig and override.
type TankConfig struct {
	// CapacityJ is the supercap capacity in joules; charge saturates
	// here.
	CapacityJ float64
	// WakeJ is the hysteresis upper threshold: a DARK tank that banks
	// to WakeJ or above starts waking.
	WakeJ float64
	// SleepJ is the hysteresis lower threshold: a LIVE tank drained
	// to SleepJ or below goes dark. Must sit strictly below WakeJ so
	// a tag cannot flap within one slot.
	SleepJ float64
	// InitialJ is the charge at slot zero.
	InitialJ float64
	// SlotSeconds is the poll-slot duration one StepSlot integrates
	// harvest and leakage over.
	SlotSeconds float64
	// HarvestW is the ambient harvest power in a good slot
	// (HarvestedPowerW, the paper's 100 µW, is the usual choice).
	HarvestW float64
	// Severity in [0,1] is harvest scarcity: the deterministic
	// per-slot availability draw starves a Severity-fraction of slots
	// down to ScarceFrac of HarvestW. 0 = steady harvest, 1 = starved
	// in (almost) every slot.
	Severity float64
	// ScarceFrac in [0,1) is the harvest fraction left in a starved
	// slot (default 0.1: scraps, not zero — real ambient RF rarely
	// vanishes completely).
	ScarceFrac float64
	// LeakW is the standing leakage drain applied every slot.
	LeakW float64
	// Seed drives the per-slot availability draws.
	Seed int64
}

// DefaultTankConfig is sized so a tag decoding paper-default frames
// duty-cycles visibly at mid severities: a few frames of burst energy
// in the cap, wake/sleep thresholds a factor of five apart.
func DefaultTankConfig(seed int64) TankConfig {
	return TankConfig{
		CapacityJ:   4e-6,
		WakeJ:       2e-6,
		SleepJ:      0.4e-6,
		InitialJ:    4e-6,
		SlotSeconds: 5e-3,
		HarvestW:    HarvestedPowerW,
		Severity:    0,
		ScarceFrac:  0.1,
		LeakW:       1e-6,
		Seed:        seed,
	}
}

// Validate reports whether the configuration is usable, never
// panicking (PR3 convention). A nil error means NewTank succeeds.
func (c TankConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CapacityJ", c.CapacityJ}, {"WakeJ", c.WakeJ}, {"SleepJ", c.SleepJ},
		{"InitialJ", c.InitialJ}, {"SlotSeconds", c.SlotSeconds},
		{"HarvestW", c.HarvestW}, {"Severity", c.Severity},
		{"ScarceFrac", c.ScarceFrac}, {"LeakW", c.LeakW},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("energy: tank %s is not finite", f.name)
		}
	}
	if c.CapacityJ <= 0 {
		return fmt.Errorf("energy: tank capacity must be positive, got %v J", c.CapacityJ)
	}
	if c.WakeJ <= 0 || c.WakeJ > c.CapacityJ {
		return fmt.Errorf("energy: wake threshold %v J outside (0, capacity %v J]", c.WakeJ, c.CapacityJ)
	}
	if c.SleepJ < 0 || c.SleepJ >= c.WakeJ {
		return fmt.Errorf("energy: sleep threshold %v J outside [0, wake %v J)", c.SleepJ, c.WakeJ)
	}
	if c.InitialJ < 0 || c.InitialJ > c.CapacityJ {
		return fmt.Errorf("energy: initial charge %v J outside [0, capacity %v J]", c.InitialJ, c.CapacityJ)
	}
	if c.SlotSeconds <= 0 {
		return fmt.Errorf("energy: slot duration must be positive, got %v s", c.SlotSeconds)
	}
	if c.HarvestW <= 0 {
		return fmt.Errorf("energy: harvest power must be positive, got %v W", c.HarvestW)
	}
	if c.Severity < 0 || c.Severity > 1 {
		return fmt.Errorf("energy: severity %v outside [0,1]", c.Severity)
	}
	if c.ScarceFrac < 0 || c.ScarceFrac >= 1 {
		return fmt.Errorf("energy: scarce fraction %v outside [0,1)", c.ScarceFrac)
	}
	if c.LeakW < 0 {
		return fmt.Errorf("energy: leakage must be non-negative, got %v W", c.LeakW)
	}
	return nil
}

// withDefaults fills the one defaultable knob.
func (c TankConfig) withDefaults() TankConfig {
	if c.ScarceFrac == 0 {
		c.ScarceFrac = 0.1
	}
	return c
}

// Tank is the running state machine. Not safe for concurrent use;
// each serving session owns its own.
type Tank struct {
	cfg     TankConfig
	chargeJ float64
	state   TankState
	slot    int
	spentJ  float64
}

// NewTank validates cfg and returns a tank at slot zero holding
// InitialJ. The initial state follows the hysteresis thresholds:
// LIVE at or above WakeJ, DARK otherwise.
func NewTank(cfg TankConfig) (*Tank, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tank{cfg: cfg, chargeJ: cfg.InitialJ, state: TankDark}
	if cfg.InitialJ >= cfg.WakeJ {
		t.state = TankLive
	}
	return t, nil
}

// State returns the current energy state.
func (t *Tank) State() TankState { return t.state }

// Config returns the tank's configuration (with defaults filled).
func (t *Tank) Config() TankConfig { return t.cfg }

// slotMix maps (seed, slot) to a uniform availability draw through
// rng.Mix, so the harvest trace is a pure function of both and
// independent of call ordering anywhere else.
func slotMix(seed int64, slot int) float64 {
	return float64(uint64(rng.Mix(seed, slot))>>11) / float64(1<<53)
}

// HarvestInSlot returns the joules the tank banks in the given slot:
// full harvest when the availability draw clears Severity, ScarceFrac
// of it otherwise. Exported so harnesses can account offered energy
// without replaying a tank.
func (c TankConfig) HarvestInSlot(slot int) float64 {
	c = c.withDefaults()
	p := c.HarvestW
	if slotMix(c.Seed, slot) < c.Severity {
		p *= c.ScarceFrac
	}
	return p * c.SlotSeconds
}

// StepSlot advances one poll slot: bank the slot's harvest, pay
// leakage, then run the hysteresis transitions. Returns the state
// after the step — the state the scheduler polls against.
func (t *Tank) StepSlot() TankState {
	t.chargeJ += t.cfg.HarvestInSlot(t.slot)
	t.chargeJ -= t.cfg.LeakW * t.cfg.SlotSeconds
	if t.chargeJ < 0 {
		t.chargeJ = 0
	}
	if t.chargeJ > t.cfg.CapacityJ {
		t.chargeJ = t.cfg.CapacityJ
	}
	t.slot++
	switch t.state {
	case TankDark:
		if t.chargeJ >= t.cfg.WakeJ {
			t.state = TankWaking
		}
	case TankWaking:
		// Booting costs one slot; the radio answers from the next.
		t.state = TankLive
	case TankLive:
		if t.chargeJ <= t.cfg.SleepJ {
			t.state = TankDark
		}
	}
	return t.state
}

// Drain spends transmit energy (joules ≥ 0) from the cap, e.g.
// TxPowerW(cfg) × attempt airtime after a decode. A LIVE tank drained
// to the sleep threshold goes DARK. Returns the state after the
// drain.
func (t *Tank) Drain(joules float64) TankState {
	if joules < 0 || math.IsNaN(joules) || math.IsInf(joules, 0) {
		return t.state
	}
	t.chargeJ -= joules
	t.spentJ += joules
	if t.chargeJ < 0 {
		t.chargeJ = 0
	}
	if t.state == TankLive && t.chargeJ <= t.cfg.SleepJ {
		t.state = TankDark
	}
	return t.state
}

// TankSnapshot is a tank's whole running state: the banked charge, the
// energy state, the poll slot, and the transmit energy drained so far
// (the numerator of joules-per-delivered-bit). The harvest trace is a
// pure function of (Seed, slot), so a tank rebuilt from the same
// config and restored from a snapshot continues exactly where the
// original left off.
type TankSnapshot struct {
	ChargeJ float64   `json:"charge_j"`
	State   TankState `json:"state"`
	Slot    int       `json:"slot"`
	SpentJ  float64   `json:"spent_j"`
}

// Snapshot captures the tank's running state.
func (t *Tank) Snapshot() TankSnapshot {
	return TankSnapshot{ChargeJ: t.chargeJ, State: t.state, Slot: t.slot, SpentJ: t.spentJ}
}

// Restore installs a snapshot, rejecting values no tank of this
// config could hold: a charge outside [0, CapacityJ], a negative or
// non-finite spend, a negative slot, or an unknown state.
func (t *Tank) Restore(s TankSnapshot) error {
	if !(s.ChargeJ >= 0 && s.ChargeJ <= t.cfg.CapacityJ) || !(s.SpentJ >= 0 && s.SpentJ <= math.MaxFloat64) ||
		s.Slot < 0 || s.State < TankDark || s.State > TankLive {
		return fmt.Errorf("energy: snapshot %+v out of range", s)
	}
	t.chargeJ, t.state, t.slot, t.spentJ = s.ChargeJ, s.State, s.Slot, s.SpentJ
	return nil
}
