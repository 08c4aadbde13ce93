// Package adapt closes the loop the paper leaves open: Sec. 6.1 picks
// the best of the 36 tag configurations *offline* (Monte-Carlo
// feasibility at a known placement), but a deployed link drifts —
// people move, a neighboring cell starts streaming, the tag's
// oscillator warms up. This package is a deterministic runtime rate
// controller: it consumes the per-packet diagnostics the pipeline
// already lifts into core.PacketResult (raw BER, SIC residual,
// Viterbi corrections, wake misses, ACK drops) and walks a ladder of
// tag configurations with hysteresis — fast downshift on hard failure,
// slow upshift only after a sustained clean run — so a session
// degrades to a robust operating point instead of exhausting its ARQ
// budget, and climbs back when the channel recovers.
//
// Everything is a pure function of the observation stream: no wall
// clock, no RNG. The same sequence of Observations produces a
// byte-identical switch trace, which is what makes the serving layer's
// shard-count determinism contract (DESIGN.md §5e) extend to adaptive
// sessions (§5f).
package adapt

import (
	"fmt"
	"sort"

	"backfi/internal/tag"
)

// Config tunes the controller's thresholds. The zero value of any
// field selects the default noted on it; Defaults() returns the fully
// resolved set.
type Config struct {
	// DownAfter is the consecutive hard failures (CRC fail or wake
	// miss) that trigger a downshift — small, so collapse is caught
	// within a frame's retry budget. Default 2.
	DownAfter int
	// UpAfter is the consecutive end-to-end deliveries required before
	// an upshift is considered — large, so one lucky packet cannot
	// bounce the link back into a rate that just failed. Default 12.
	UpAfter int
	// HoldPackets is the post-switch hold-down: after any switch the
	// controller observes at least this many attempts before it will
	// upshift, bounding oscillation frequency. Default 8.
	HoldPackets int
	// BERDown: a decoded attempt whose raw (pre-FEC) BER reaches this
	// counts as dirty, and a dirty EWMA at/above it forces a downshift
	// even while the CRC still passes — the early-warning path. The
	// rate-1/2 K=7 code corrects comfortably to ~5–6% raw BER, so by
	// 8% frames are dying. Default 0.08.
	BERDown float64
	// BERUp: the BER EWMA must be at or below this before an upshift —
	// the hysteresis gap between BERUp and BERDown is what keeps the
	// controller from ping-ponging on a boundary channel. Default 0.02.
	BERUp float64
	// EWMAAlpha is the BER EWMA smoothing weight on the newest decoded
	// attempt. Default 0.25.
	EWMAAlpha float64
	// ResidualMarginDB: a decoded attempt whose SIC residual sits this
	// far above the session's observed floor counts as dirty (the
	// canceller is being jammed, e.g. an interference burst in the
	// training window). Default 10.
	ResidualMarginDB float64
	// Floor is the minimum ladder index the controller will not
	// downshift below. Default 0 (the ladder's most robust rung).
	Floor int
}

// Defaults returns cfg with every unset field resolved.
func (c Config) Defaults() Config {
	if c.DownAfter == 0 {
		c.DownAfter = 2
	}
	if c.UpAfter == 0 {
		c.UpAfter = 12
	}
	if c.HoldPackets == 0 {
		c.HoldPackets = 8
	}
	if c.BERDown == 0 {
		c.BERDown = 0.08
	}
	if c.BERUp == 0 {
		c.BERUp = 0.02
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.25
	}
	if c.ResidualMarginDB == 0 {
		c.ResidualMarginDB = 10
	}
	return c
}

// Validate checks a resolved configuration.
func (c Config) Validate() error {
	if c.DownAfter < 1 || c.UpAfter < 1 || c.HoldPackets < 0 {
		return fmt.Errorf("adapt: counters must be positive (DownAfter %d, UpAfter %d, HoldPackets %d)", c.DownAfter, c.UpAfter, c.HoldPackets)
	}
	if c.BERDown <= 0 || c.BERDown > 0.5 || c.BERUp <= 0 || c.BERUp > c.BERDown {
		return fmt.Errorf("adapt: need 0 < BERUp %v <= BERDown %v <= 0.5", c.BERUp, c.BERDown)
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		return fmt.Errorf("adapt: EWMAAlpha %v outside (0,1]", c.EWMAAlpha)
	}
	if c.ResidualMarginDB <= 0 {
		return fmt.Errorf("adapt: ResidualMarginDB %v must be positive", c.ResidualMarginDB)
	}
	if c.Floor < 0 {
		return fmt.Errorf("adapt: negative Floor %d", c.Floor)
	}
	return nil
}

// Observation is one attempt's diagnostics, in the controller's terms.
// The session layer fills it from core.PacketResult plus the ARQ
// outcome; no field requires ground truth the reader does not have.
type Observation struct {
	// NoWake: the tag slept through the wake preamble — the hardest
	// failure (no diagnostics at all below this line are valid).
	NoWake bool
	// PayloadOK: the frame CRC checked at the reader.
	PayloadOK bool
	// Delivered: the frame completed end to end (PayloadOK and the ACK
	// reached the tag).
	Delivered bool
	// ACKDropped: decoded but the ACK back to the tag was lost; the
	// PHY is fine, so this resets the clean streak without counting as
	// a hard failure.
	ACKDropped bool
	// RawBER is the attempt's pre-FEC coded-bit error rate.
	RawBER float64
	// SICResidualDBm is the post-cancellation floor over the training
	// window; the controller tracks its minimum as the noise floor.
	SICResidualDBm float64
	// ViterbiCorrectedBits counts coded bits the decoder repaired.
	ViterbiCorrectedBits int
	// MeasuredSNRdB is the post-MRC symbol SNR.
	MeasuredSNRdB float64
}

// Switch records one ladder move.
type Switch struct {
	// Attempt is the 1-based observation count at which the switch was
	// decided (it applies from the next attempt).
	Attempt int
	// From/To are the rungs.
	From, To tag.Config
	// Reason is a short deterministic tag: "down:crc", "down:wake",
	// "down:ber", "down:ceiling", "up:clean".
	Reason string
}

// String formats one trace line; the format is stable because tests
// byte-compare traces across worker and shard counts.
func (s Switch) String() string {
	return fmt.Sprintf("attempt %d: %s -> %s (%s)", s.Attempt, s.From, s.To, s.Reason)
}

// Controller walks a ladder of tag configurations. Not safe for
// concurrent use: like the session that owns it, it belongs to one
// decode stream.
type Controller struct {
	cfg     Config
	ladder  []tag.Config
	idx     int
	ceiling int

	attempts    int
	consecFail  int
	consecGood  int
	sinceSwitch int

	ewmaBER float64
	ewmaSet bool

	floorDBm float64
	floorSet bool

	trace []Switch
}

// Ladder orders configurations ascending by information bit rate
// (ties broken by symbol rate, then the config's string), dropping
// duplicates. Index 0 is the most robust rung — lowest rate, hence the
// largest per-symbol MRC gain.
func Ladder(cfgs []tag.Config) []tag.Config {
	out := make([]tag.Config, 0, len(cfgs))
	seen := map[tag.Config]bool{}
	for _, c := range cfgs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BitRate() != out[j].BitRate() {
			return out[i].BitRate() < out[j].BitRate()
		}
		if out[i].SymbolRateHz != out[j].SymbolRateHz {
			return out[i].SymbolRateHz < out[j].SymbolRateHz
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// NewController builds a controller over the ladder, starting at the
// rung equal to start (or, if start is not on the ladder, the fastest
// rung not exceeding start's bit rate). The ladder is re-sorted and
// deduplicated via Ladder, and every rung is validated.
func NewController(cfg Config, cfgs []tag.Config, start tag.Config) (*Controller, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ladder := Ladder(cfgs)
	if len(ladder) == 0 {
		return nil, fmt.Errorf("adapt: empty ladder")
	}
	for _, c := range ladder {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("adapt: ladder rung %s: %w", c, err)
		}
	}
	if cfg.Floor >= len(ladder) {
		return nil, fmt.Errorf("adapt: Floor %d beyond ladder of %d rungs", cfg.Floor, len(ladder))
	}
	idx := -1
	for i, c := range ladder {
		if c == start {
			idx = i
			break
		}
	}
	if idx < 0 {
		// Nearest rung from below; a start slower than the whole ladder
		// begins at the floor.
		idx = cfg.Floor
		for i, c := range ladder {
			if c.BitRate() <= start.BitRate() {
				idx = i
			}
		}
	}
	if idx < cfg.Floor {
		idx = cfg.Floor
	}
	return &Controller{cfg: cfg, ladder: ladder, idx: idx, ceiling: len(ladder) - 1}, nil
}

// State is the controller's complete mutable state, exported for
// session handoff (DESIGN.md §5j): a survivor node restores it into a
// freshly built controller over the same ladder and continues the
// decision stream byte-identically. The switch trace is deliberately
// not part of the state — it is observability, not control input (no
// decision reads it), and the serving layer's ConfigSwitches counter
// rides in core.SessionStats instead. The JSON names are the handoff
// snapshot's.
type State struct {
	// Index / Ceiling are the current rung and the watchdog clamp.
	Index   int `json:"idx"`
	Ceiling int `json:"ceiling"`
	// Attempts, ConsecFail, ConsecGood, SinceSwitch are the streak
	// counters driving hysteresis.
	Attempts    int `json:"attempts,omitempty"`
	ConsecFail  int `json:"consec_fail,omitempty"`
	ConsecGood  int `json:"consec_good,omitempty"`
	SinceSwitch int `json:"since_switch,omitempty"`
	// EWMABER / EWMASet carry the raw-BER estimate.
	EWMABER float64 `json:"ewma_ber,omitempty"`
	EWMASet bool    `json:"ewma_set,omitempty"`
	// FloorDBm / FloorSet carry the observed SIC noise floor.
	FloorDBm float64 `json:"floor_dbm,omitempty"`
	FloorSet bool    `json:"floor_set,omitempty"`
}

// State snapshots the controller for handoff.
func (c *Controller) State() State {
	return State{
		Index: c.idx, Ceiling: c.ceiling,
		Attempts: c.attempts, ConsecFail: c.consecFail, ConsecGood: c.consecGood, SinceSwitch: c.sinceSwitch,
		EWMABER: c.ewmaBER, EWMASet: c.ewmaSet,
		FloorDBm: c.floorDBm, FloorSet: c.floorSet,
	}
}

// Restore installs a snapshot taken from a controller over an
// identical ladder. Counters and rung indices are validated against
// this controller's ladder; the switch trace restarts empty.
func (c *Controller) Restore(s State) error {
	if s.Index < 0 || s.Index >= len(c.ladder) || s.Ceiling < 0 || s.Ceiling >= len(c.ladder) {
		return fmt.Errorf("adapt: restore rung %d / ceiling %d outside ladder of %d rungs", s.Index, s.Ceiling, len(c.ladder))
	}
	if s.Index < c.cfg.Floor {
		return fmt.Errorf("adapt: restore rung %d below floor %d", s.Index, c.cfg.Floor)
	}
	if s.Attempts < 0 || s.ConsecFail < 0 || s.ConsecGood < 0 || s.SinceSwitch < 0 {
		return fmt.Errorf("adapt: negative restore counters")
	}
	c.idx, c.ceiling = s.Index, s.Ceiling
	c.attempts, c.consecFail, c.consecGood, c.sinceSwitch = s.Attempts, s.ConsecFail, s.ConsecGood, s.SinceSwitch
	c.ewmaBER, c.ewmaSet = s.EWMABER, s.EWMASet
	c.floorDBm, c.floorSet = s.FloorDBm, s.FloorSet
	c.trace = nil
	return nil
}

// Config returns the current rung.
func (c *Controller) Config() tag.Config { return c.ladder[c.idx] }

// Index returns the current ladder index.
func (c *Controller) Index() int { return c.idx }

// Ceiling returns the highest ladder index currently allowed.
func (c *Controller) Ceiling() int { return c.ceiling }

// IndexOf locates a configuration on the ladder.
func (c *Controller) IndexOf(cfg tag.Config) (int, bool) {
	for i, l := range c.ladder {
		if l == cfg {
			return i, true
		}
	}
	return 0, false
}

// Trace returns the switch history (shared slice; do not mutate).
func (c *Controller) Trace() []Switch { return c.trace }

// TraceStrings renders the switch history in the stable format the
// determinism tests byte-compare.
func (c *Controller) TraceStrings() []string {
	out := make([]string, len(c.trace))
	for i, s := range c.trace {
		out[i] = s.String()
	}
	return out
}

// SetCeiling clamps the ladder to index i (the serve watchdog's
// degraded mode forces a robust rung this way). If the controller is
// currently above the new ceiling it downshifts immediately, recorded
// as one "down:ceiling" switch; raising the ceiling lets the ordinary
// slow-upshift rules climb back. Out-of-range values are clamped.
func (c *Controller) SetCeiling(i int) (tag.Config, bool) {
	if i < c.cfg.Floor {
		i = c.cfg.Floor
	}
	if i > len(c.ladder)-1 {
		i = len(c.ladder) - 1
	}
	c.ceiling = i
	if c.idx <= i {
		return c.Config(), false
	}
	c.shift(i, "down:ceiling")
	return c.Config(), true
}

// shift moves to rung i and resets the streak state. A switch
// invalidates the BER estimate (it was measured on the old rung), so
// the EWMA re-seeds from the next decoded attempt.
func (c *Controller) shift(i int, reason string) {
	c.trace = append(c.trace, Switch{Attempt: c.attempts, From: c.ladder[c.idx], To: c.ladder[i], Reason: reason})
	c.idx = i
	c.consecFail = 0
	c.consecGood = 0
	c.sinceSwitch = 0
	c.ewmaSet = false
}

// Observe consumes one attempt's outcome and returns the rung the next
// attempt should use, plus whether it changed. Deterministic: state
// depends only on the observation sequence.
func (c *Controller) Observe(o Observation) (tag.Config, bool) {
	c.attempts++
	c.sinceSwitch++

	// Estimate the noise floor as the minimum residual seen; only
	// decoded attempts carry a residual measurement.
	if !o.NoWake {
		if !c.floorSet || o.SICResidualDBm < c.floorDBm {
			c.floorDBm = o.SICResidualDBm
			c.floorSet = true
		}
		if c.ewmaSet {
			c.ewmaBER += c.cfg.EWMAAlpha * (o.RawBER - c.ewmaBER)
		} else {
			c.ewmaBER = o.RawBER
			c.ewmaSet = true
		}
	}

	hardFail := o.NoWake || !o.PayloadOK
	dirty := hardFail ||
		o.RawBER >= c.cfg.BERDown ||
		(c.floorSet && o.SICResidualDBm > c.floorDBm+c.cfg.ResidualMarginDB)
	switch {
	case hardFail:
		c.consecFail++
		c.consecGood = 0
	case o.Delivered && !dirty:
		c.consecGood++
		c.consecFail = 0
	default:
		// Decoded but dirty (high BER, jammed canceller) or the ACK was
		// lost: not a PHY failure, but not evidence for climbing either.
		c.consecGood = 0
		if !dirty {
			c.consecFail = 0
		}
	}

	before := c.idx
	switch {
	case c.consecFail >= c.cfg.DownAfter && c.idx > c.cfg.Floor:
		// Fast downshift. A wake miss or a collapsed EWMA means the
		// current rung is hopeless, so drop two rungs at once.
		step, reason := 1, "down:crc"
		if o.NoWake {
			step, reason = 2, "down:wake"
		} else if c.ewmaSet && c.ewmaBER >= 2*c.cfg.BERDown {
			step = 2
		}
		i := c.idx - step
		if i < c.cfg.Floor {
			i = c.cfg.Floor
		}
		c.shift(i, reason)
	case c.ewmaSet && c.ewmaBER >= c.cfg.BERDown && c.sinceSwitch >= c.cfg.DownAfter && c.idx > c.cfg.Floor:
		// Early-warning downshift: the CRC still passes, but the raw
		// BER says the rung is living off the Viterbi decoder.
		c.shift(c.idx-1, "down:ber")
	case c.consecGood >= c.cfg.UpAfter && c.sinceSwitch >= c.cfg.HoldPackets &&
		c.ewmaSet && c.ewmaBER <= c.cfg.BERUp && c.idx < c.ceiling:
		c.shift(c.idx+1, "up:clean")
	}
	return c.ladder[c.idx], c.idx != before
}
