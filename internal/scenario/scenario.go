// Package scenario is the one closed-loop engine under the serving
// harnesses (DESIGN.md §5f): it runs a deterministic per-session op
// program — decode, mdecode, stats probe, connection break, park —
// against a reader daemon target (a serve.Client or a cluster.Client),
// optionally mirrored op for op onto a control daemon, and checks the
// serving invariants on every run:
//
//   - Seq advances by exactly one per accepted live decode, and a dark
//     answer leaves it unchanged;
//   - delivered ≤ offered;
//   - every response is byte-identical to the control's, when a
//     control is given;
//   - no goroutine is left after drain (Harness.Drain).
//
// A violation is a *Violation in the returned error. backfi-loadgen
// and backfi-chaos are flag front ends over Run and Harness.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"backfi/internal/rng"
	"backfi/internal/serve"
)

// Kind is an op of a session program.
type Kind uint8

const (
	// Decode offers one frame; dark answers are re-polled within the
	// run's DarkRetries budget.
	Decode Kind = iota
	// MultiDecode offers one jointly decoded slot of Tags payloads.
	MultiDecode
	// Stats probes the session's statistics.
	Stats
	// Break severs the target's connection; its next call redials.
	Break
	// Park polls the frame once outside the offered accounting; a dark
	// answer or an error skips the session's remaining Park ops. It
	// leaves an energy-gated session dark mid-backoff after its
	// workload, which the harvest TTL gate then expects to survive.
	Park
)

// Op is one step of a session program. Frame indexes the payload
// (Payload); Tags is a MultiDecode group size.
type Op struct {
	Kind  Kind
	Frame int
	Tags  int
}

// Session is one session id and its ops, run in order.
type Session struct {
	ID  string
	Ops []Op
}

// Payload is frame i of a session: "<id>/<i:06d>/" padded with byte(i)
// and cut to n bytes.
func Payload(id string, i, n int) []byte {
	p := fmt.Appendf(make([]byte, 0, n), "%s/%06d/", id, i)
	for len(p) < n {
		p = append(p, byte(i))
	}
	return p[:n]
}

// payloads is a MultiDecode slot: tag k's payload is frame i of the
// member id "<id>/<k>".
func payloads(id string, i, tags, n int) [][]byte {
	out := make([][]byte, tags)
	for k := range out {
		out[k] = Payload(fmt.Sprintf("%s/%d", id, k), i, n)
	}
	return out
}

// Closed is the closed-loop program: sessions ids "<prefix>-000"…, each
// offering frames decodes in order, severing its connection before
// every killEvery-th frame (0 never), then parking for up to park
// polls, then probing its final stats.
func Closed(prefix string, sessions, frames, killEvery, park int) []Session {
	prog := make([]Session, sessions)
	for s := range prog {
		ops := make([]Op, 0, frames+frames/max(killEvery, 1)+park+1)
		for i := 0; i < frames; i++ {
			if killEvery > 0 && i > 0 && i%killEvery == 0 {
				ops = append(ops, Op{Kind: Break})
			}
			ops = append(ops, Op{Kind: Decode, Frame: i})
		}
		for i := frames; i < frames+park; i++ {
			ops = append(ops, Op{Kind: Park, Frame: i})
		}
		prog[s] = Session{ID: fmt.Sprintf("%s-%03d", prefix, s), Ops: append(ops, Op{Kind: Stats})}
	}
	return prog
}

// Churn is the heavy-tailed session-churn program (DESIGN.md §5i): ids
// "churn-0000000"…, each active with probability active and then
// offering 1 + Zipf(1.5) slots (at most slotsMax) of tags-payload
// mdecodes (plain decodes when tags is 0); an inactive id only probes
// its stats, registering state the TTL sweep must reclaim. Each id's
// draw is a pure function of (seed, id index) through a SplitMix64
// stream keyed by rng.Mix.
func Churn(seed int64, ids, tags, slotsMax int, active float64) []Session {
	probe := []Op{{Kind: Stats}}
	prog := make([]Session, ids)
	for idx := range prog {
		r := rng.New(rng.Mix(seed, idx))
		ops := probe
		if r.Float64() < active {
			slots := 1
			if slotsMax > 1 {
				slots += int(rand.NewZipf(r, 1.5, 1, uint64(slotsMax-1)).Uint64())
			}
			ops = make([]Op, slots)
			for i := range ops {
				ops[i] = Op{Kind: Decode, Frame: i}
				if tags > 0 {
					ops[i] = Op{Kind: MultiDecode, Frame: i, Tags: tags}
				}
			}
		}
		prog[idx] = Session{ID: fmt.Sprintf("churn-%07d", idx), Ops: ops}
	}
	return prog
}

// Target is the daemon surface a program drives. A Target that also
// has MultiDecode, BreakConn or Health (serve.Client has all three)
// serves those ops and reports its redial activity.
type Target interface {
	Decode(session string, payload []byte) (*serve.Response, error)
	Stats(session string) (*serve.SessionStats, error)
	Close() error
}

type multiDecoder interface {
	MultiDecode(session string, payloads [][]byte) (*serve.Response, error)
}

type connBreaker interface{ BreakConn() }

type healthReporter interface{ Health() serve.ClientHealth }

// Config is one run.
type Config struct {
	Program []Session
	// Workers > 0 runs the program on that many clients, each taking
	// the next whole session in program order; 0 runs one client per
	// session, all concurrently.
	Workers int
	// Dial opens client w's target. Control, when set, opens its
	// control: every op then runs on the control first and on the
	// target second, and the two answers must be byte-identical.
	Dial, Control func(w int) (Target, error)
	// PayloadBytes sizes every payload (Payload).
	PayloadBytes int
	// DarkRetries is how many times one Decode re-polls a dark answer
	// before the frame counts as failed.
	DarkRetries int
	// BeforeOp, when set, runs on the client's goroutine before each op
	// (a node kill at a given frame, for instance).
	BeforeOp func(Op)
	// SeenIDs says the target may have served the program's ids before
	// (a daemon the run did not boot): each session's first answer then
	// sets its Seq base. Otherwise every session starts at Seq 0, so its
	// first live answer must be Seq 1.
	SeenIDs bool
}

// Outcome is one client's account of the sessions it ran. Offered and
// Delivered count tag frames (an mdecode slot offers Tags); Rejected
// (typed backpressure) and Failed (every other error) count ops.
type Outcome struct {
	Slots, Probes, Kills        int
	Offered, Delivered          int
	ControlDelivered            int // the control's delivered tag frames
	Rejected, Failed, DarkPolls int
	// Live counts the live decode answers of the client's last session,
	// EndStreak the dark answers since the last of them.
	Live, EndStreak int
	LatencyUS       []int64
	// Stats is the answer of the last stats probe (nil when that probe
	// failed); Health the client's redial activity at the end of the
	// run.
	Stats  *serve.SessionStats
	Health serve.ClientHealth
}

func (o *Outcome) add(p Outcome) {
	o.Slots += p.Slots
	o.Probes += p.Probes
	o.Kills += p.Kills
	o.Offered += p.Offered
	o.Delivered += p.Delivered
	o.ControlDelivered += p.ControlDelivered
	o.Rejected += p.Rejected
	o.Failed += p.Failed
	o.DarkPolls += p.DarkPolls
	o.Live += p.Live
	o.LatencyUS = append(o.LatencyUS, p.LatencyUS...)
	o.Health.Redials += p.Health.Redials
	o.Health.BrokenConns += p.Health.BrokenConns
}

// Result is a run's outcome: one Outcome per client (per session when
// Config.Workers is 0) and every invariant violation observed.
type Result struct {
	Clients    []Outcome
	Wall       time.Duration
	Violations []*Violation
}

// Total sums the clients' outcomes; its latencies are sorted.
func (r *Result) Total() Outcome {
	var t Outcome
	for _, o := range r.Clients {
		t.add(o)
	}
	sort.Slice(t.LatencyUS, func(i, j int) bool { return t.LatencyUS[i] < t.LatencyUS[j] })
	return t
}

// Count is how many violations of inv the run saw.
func (r *Result) Count(inv Invariant) int {
	n := 0
	for _, v := range r.Violations {
		if v.Invariant == inv {
			n++
		}
	}
	return n
}

// Invariant names a checked serving invariant.
type Invariant string

const (
	SeqGap       Invariant = "seq"
	Conservation Invariant = "delivered<=offered"
	Mismatch     Invariant = "control mismatch"
	Leak         Invariant = "goroutine leak"
)

// Violation is one broken invariant.
type Violation struct {
	Invariant Invariant
	Session   string
	Detail    string
}

func (v *Violation) Error() string {
	if v.Session == "" {
		return fmt.Sprintf("invariant %s violated: %s", v.Invariant, v.Detail)
	}
	return fmt.Sprintf("invariant %s violated by session %s: %s", v.Invariant, v.Session, v.Detail)
}

// Quantile is the nearest-rank q-quantile of a sorted sample: its
// ⌈q·n⌉-th smallest value (0 for an empty sample).
func Quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return float64(sorted[rank-1])
}

// Rate is a zero-guarded ratio.
func Rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Run executes the program. The error joins every *Violation (also
// listed in Result.Violations); a client that cannot dial fails the
// run with a nil Result.
func Run(cfg Config) (*Result, error) {
	n := cfg.Workers
	if n <= 0 {
		n = len(cfg.Program)
	}
	clients := make([]*client, 0, n)
	fail := func(err error) (*Result, error) {
		for _, c := range clients {
			c.close()
		}
		return nil, err
	}
	for w := 0; w < n; w++ {
		t, err := cfg.Dial(w)
		if err != nil {
			return fail(err)
		}
		c := &client{cfg: &cfg, target: t}
		clients = append(clients, c)
		if cfg.Control != nil {
			if c.control, err = cfg.Control(w); err != nil {
				c.control = nil
				return fail(err)
			}
		}
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			if cfg.Workers <= 0 {
				c.session(&cfg.Program[w])
				return
			}
			for i := next.Add(1) - 1; i < int64(len(cfg.Program)); i = next.Add(1) - 1 {
				c.session(&cfg.Program[i])
			}
		}()
	}
	wg.Wait()
	res := &Result{Clients: make([]Outcome, n), Wall: time.Since(start)}
	for w, c := range clients {
		res.Clients[w] = c.out
		res.Violations = append(res.Violations, c.violations...)
		if c.out.Delivered > c.out.Offered {
			res.Violations = append(res.Violations, &Violation{Invariant: Conservation,
				Detail: fmt.Sprintf("client %d delivered %d of %d offered tag frames", w, c.out.Delivered, c.out.Offered)})
		}
	}
	errs := make([]error, len(res.Violations))
	for i, v := range res.Violations {
		errs[i] = v
	}
	return res, errors.Join(errs...)
}

// client is one closed loop: a target, an optional control, and the
// account of every session it ran.
type client struct {
	cfg             *Config
	target, control Target
	out             Outcome
	violations      []*Violation

	// Per-session state: the id, the Seq of the last answer (seqKnown
	// false while no answer fixes it: after a transport failure, and at
	// the start of a session under Config.SeenIDs), and whether a
	// control mismatch was already reported.
	id       string
	seq      int
	seqKnown bool
	diverged bool
}

func (c *client) close() {
	c.target.Close()
	if c.control != nil {
		c.control.Close()
	}
	if h, ok := c.target.(healthReporter); ok {
		c.out.Health = h.Health()
	}
}

func (c *client) violate(inv Invariant, format string, args ...any) {
	c.violations = append(c.violations, &Violation{Invariant: inv, Session: c.id, Detail: fmt.Sprintf(format, args...)})
}

func (c *client) session(s *Session) {
	c.id, c.seq, c.seqKnown, c.diverged = s.ID, 0, !c.cfg.SeenIDs, false
	c.out.Live, c.out.EndStreak = 0, 0
	parked := false
	for i, op := range s.Ops {
		if c.cfg.BeforeOp != nil {
			c.cfg.BeforeOp(op)
		}
		switch op.Kind {
		case Stats:
			c.out.Probes++
			var want *serve.SessionStats
			if c.control != nil {
				// A failed control probe answers nil, which compare
				// reports against any target answer.
				want, _ = c.control.Stats(c.id)
			}
			st, err := c.target.Stats(c.id)
			if c.control != nil {
				c.compare(i, want, st)
			}
			if err != nil {
				st = nil // missing, not stale
				c.out.Failed++
			}
			c.out.Stats = st
		case Break:
			if b, ok := c.target.(connBreaker); ok {
				b.BreakConn()
				c.out.Kills++
			}
		case Park:
			parked = parked || c.frame(i, op) != nil
		default:
			c.frame(i, op)
		}
	}
}

// frame runs one Decode, MultiDecode or Park op through its dark
// re-polls (none for Park) and accounts its outcome (Park only its
// polls).
func (c *client) frame(i int, op Op) error {
	budget := c.cfg.DarkRetries
	if op.Kind == Park {
		budget = 0
	}
	var resp *serve.Response
	var err error
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		resp, err = c.poll(i, op)
		lat := time.Since(t0).Microseconds()
		if errors.Is(err, serve.ErrTagDark) {
			c.out.DarkPolls++
			c.out.EndStreak++
			if attempt < budget {
				continue
			}
		} else {
			c.out.EndStreak = 0
			if op.Kind != Park {
				c.out.LatencyUS = append(c.out.LatencyUS, lat)
			}
		}
		break
	}
	if err == nil {
		c.out.Live++
	}
	if op.Kind == Park {
		return err
	}
	c.out.Slots++
	c.out.Offered += max(op.Tags, 1)
	switch {
	case err == nil:
		c.out.Delivered += delivered(resp)
	case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrDeadline):
		c.out.Rejected++
	default:
		c.out.Failed++
	}
	return err
}

// delivered counts a decode answer's delivered tag frames.
func delivered(resp *serve.Response) int {
	if resp.Tags == nil {
		if resp.Delivered {
			return 1
		}
		return 0
	}
	n := 0
	for _, t := range resp.Tags {
		if t.Delivered {
			n++
		}
	}
	return n
}

// poll sends op's request once to the control (when set) and the
// target, compares the two answers, and checks the target's Seq.
func (c *client) poll(i int, op Op) (*serve.Response, error) {
	call := func(t Target) (*serve.Response, error) {
		if op.Kind != MultiDecode {
			return t.Decode(c.id, Payload(c.id, op.Frame, c.cfg.PayloadBytes))
		}
		m, ok := t.(multiDecoder)
		if !ok {
			return nil, fmt.Errorf("scenario: target %T has no mdecode", t)
		}
		return m.MultiDecode(c.id, payloads(c.id, op.Frame, op.Tags, c.cfg.PayloadBytes))
	}
	var want *serve.Response
	if c.control != nil {
		// A control failure shows in its answer (nil on a transport
		// failure), which compare checks against the target's.
		want, _ = call(c.control)
		if want != nil && want.Err() == nil {
			c.out.ControlDelivered += delivered(want)
		}
	}
	got, err := call(c.target)
	if c.control != nil {
		c.compare(i, want, got)
	}
	c.checkSeq(i, got, err)
	return got, err
}

// checkSeq holds the Seq invariant on one decode answer: a live answer
// is one past the previous answer, a dark one equal to it. A transport
// failure (no answer) leaves the next base unknown — the request may
// have run before the connection died.
func (c *client) checkSeq(i int, resp *serve.Response, err error) {
	dark := errors.Is(err, serve.ErrTagDark)
	switch {
	case resp == nil:
		c.seqKnown = false
		return
	case err != nil && !dark:
		return // a typed rejection never touches the session
	}
	want := c.seq
	if !dark {
		want++
	}
	if c.seqKnown && resp.Seq != want {
		c.violate(SeqGap, "op %d answered seq %d, want %d", i, resp.Seq, want)
	}
	c.seq, c.seqKnown = resp.Seq, true
}

// compare holds the control invariant on one answer pair, reporting the
// session's first divergence.
func (c *client) compare(i int, want, got any) {
	if c.diverged {
		return
	}
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		c.diverged = true
		c.violate(Mismatch, "op %d:\n  target  %s\n  control %s", i, gb, wb)
	}
}
