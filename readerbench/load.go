package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/serve"
)

// Load shape shared by every workload: one process, two client
// connections, each with at most one request in flight (closed loop —
// a BackFi AP polls a tag and waits for its frame, so a reader never
// has more polls outstanding than connections).
const (
	conns       = 2
	sessions    = 8 // fixed-session workloads, round-robin over conns
	distanceM   = 2
	rho         = 0.95
	maxRetries  = 2
	shardsFixed = 4
	daemonSeed  = 1
	faultLevel  = 0.1
)

// spec is one workload: a fixed daemon configuration and traffic shape.
type spec struct {
	name, why string
	payload   int  // bytes per tag-frame
	faults    bool // fault.Standard(faultLevel) on every session
	// tags > 0 sends mdecode slots of that many payloads; 0 sends
	// single-tag decodes.
	tags int
	// burst > 0 walks fresh group ids, each offering burst slots and
	// never returning; 0 cycles over a fixed set of sessions.
	burst int
	ttl   time.Duration
	// floor is the lowest delivery_rate a correct run may show.
	floor float64
}

var workloads = []spec{
	{
		name:    "fault_2m",
		why:     "8 sessions at 2 m with faults on: the injector bypasses the hot path, so excitation build, fault injection and SIC training dominate each frame",
		payload: 24, faults: true, floor: 0.75,
	},
	// clean_cached runs, but BENCHMARK.json leaves it out: its eight
	// session caches (about 47 MB) make its times follow the host's
	// cache load, and across runs they spread past the bounds.
	{
		name:    "clean_cached",
		why:     "same sessions, faults off, 128 B payloads: the cached hot path, where reader/sic/fec decode dominates; the bypass workload for core and fault changes",
		payload: 128, floor: 0.9,
	},
	{
		name:    "multitag_churn",
		why:     "2-tag joint-decode slots on fresh group ids, TTL eviction, faults off: session churn, joint SIC, shard queueing; the cached-path bypass for core and fault changes",
		payload: 24, tags: 2, burst: 8, ttl: time.Second, floor: 0.85,
	},
}

func lookupSpec(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// frameWidth is how many tag-frames one request offers.
func (sp spec) frameWidth() int { return max(sp.tags, 1) }

// link is the session template every daemon of this workload clones.
func (sp spec) link() core.LinkConfig {
	l := core.DefaultLinkConfig(distanceM)
	l.Seed = daemonSeed
	if sp.faults {
		p := fault.Standard(faultLevel)
		l.Faults = &p
	}
	return l
}

func (sp spec) serverConfig(shards int, reg *obs.Registry, tr *obs.Tracer) serve.Config {
	return serve.Config{
		Addr:         "localhost:0",
		Link:         sp.link(),
		CoherenceRho: rho,
		MaxRetries:   maxRetries,
		Shards:       shards,
		SessionCache: true,
		SessionTTL:   sp.ttl,
		Obs:          reg,
		Tracer:       tr,
	}
}

// mix is SplitMix64's finalizer: the benchmark's only source of
// seed-derived inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// step is one request of a connection's plan.
type step struct {
	id string
	// slot is the index of this request within its session.
	slot int
}

// plan is the request sequence of connection c: round-robin over its
// share of the fixed sessions, or bursts over its share of fresh group
// ids (c, c+conns, …), all named from the seed.
func (sp spec) plan(seed int64, c, j int) step {
	if sp.burst > 0 {
		k := c + conns*(j/sp.burst)
		return step{id: fmt.Sprintf("grp-%06d-%08x", k, uint32(mix(uint64(seed)^uint64(k)<<20^1))), slot: j % sp.burst}
	}
	per := sessions / conns
	i := c + conns*(j%per)
	return step{id: sessionID(seed, i), slot: j / per}
}

// sessionID names fixed session i from the seed. Among the seed's
// candidate names it takes the first that the daemon places on shard
// i mod shardsFixed (FNV-1a 32 of the id, as serve places sessions), so
// every seed spreads the sessions the same way: two per shard, and the
// two connections never share one. Left to chance, eight sessions land
// lumpily, and how often the connections queue behind each other on a
// shared shard would change goodput from seed to seed.
func sessionID(seed int64, i int) string {
	for n := uint64(0); ; n++ {
		id := fmt.Sprintf("tag-%02d-%08x", i, uint32(mix(uint64(seed)^uint64(i)<<20^n<<40)))
		h := fnv.New32a()
		h.Write([]byte(id))
		if int(h.Sum32()%shardsFixed) == i%shardsFixed {
			return id
		}
	}
}

// warmSteps is how many leading steps of each connection's plan set
// up its initial sessions: one request per session.
func (sp spec) warmSteps() int {
	if sp.burst > 0 {
		return 1
	}
	return sessions / conns
}

// payloads are the request's tag-frames, a pure function of (seed,
// session id, slot, tag).
func (sp spec) payloads(seed int64, st step) [][]byte {
	h := fnv.New64a()
	h.Write([]byte(st.id))
	base := mix(uint64(seed) ^ h.Sum64() ^ uint64(st.slot)<<32)
	out := make([][]byte, sp.frameWidth())
	for k := range out {
		p := make([]byte, sp.payload)
		s := mix(base ^ uint64(k+1))
		for i := range p {
			if i%8 == 0 {
				s = mix(s)
			}
			p[i] = byte(s >> (8 * (i % 8)))
		}
		out[k] = p
	}
	return out
}

// record is one answered request as the determinism digest sees it.
type record struct {
	req       int // request index within the session
	timed     bool
	seq       int
	delivered bool
	payloadOK bool
	attempts  int
	noWakes   int
	snr       float64
	tags      []serve.TagResult
}

// tally counts one phase's timed requests. Frames are tag-frames: a
// multi-tag slot offers tags of them.
type tally struct {
	requests, rejectedReqs, failedReqs  int
	offered, delivered, undelivered     int
	rejected, failed                    int
	attempts, noWakes, polled, notWoken int
	latencyMS                           []float64
}

func (t *tally) add(o tally) {
	t.requests += o.requests
	t.rejectedReqs += o.rejectedReqs
	t.failedReqs += o.failedReqs
	t.offered += o.offered
	t.delivered += o.delivered
	t.undelivered += o.undelivered
	t.rejected += o.rejected
	t.failed += o.failed
	t.attempts += o.attempts
	t.noWakes += o.noWakes
	t.polled += o.polled
	t.notWoken += o.notWoken
	t.latencyMS = append(t.latencyMS, o.latencyMS...)
}

// checkAccounting is the frame-conservation identity every run must
// satisfy.
func (t *tally) checkAccounting() error {
	if sum := t.delivered + t.undelivered + t.rejected + t.failed; sum != t.offered {
		return fmt.Errorf("frame accounting: offered %d != delivered %d + undelivered %d + rejected %d + failed %d",
			t.offered, t.delivered, t.undelivered, t.rejected, t.failed)
	}
	return nil
}

// outcome classifies one request. Typed rejections are backpressure;
// everything else that is not an OK response (error codes, transport
// failures, bad requests) is a failure.
type outcome int

const (
	answered outcome = iota
	rejected
	failed
)

func classify(resp *serve.Response, err error) outcome {
	switch {
	case err == nil && resp != nil && resp.Code == serve.CodeOK:
		return answered
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrDraining),
		errors.Is(err, serve.ErrDeadline), errors.Is(err, serve.ErrTagDark):
		return rejected
	default:
		return failed
	}
}

// sessionLog is one session's history on its connection.
type sessionLog struct {
	reqs    int
	lastSeq int
	records []record
}

// conn drives one client connection through its plan.
type conn struct {
	sp     spec
	seed   int64
	c      int
	client *serve.Client
	tracer *obs.Tracer
	next   int // next step of the plan
	logs   map[string]*sessionLog
	steps  []step // steps taken, in order
	// traced collects the trace ids of timed requests.
	traced []uint64
	errs   []string
}

const maxErrs = 20

func (cn *conn) violate(format string, args ...any) {
	if len(cn.errs) < maxErrs {
		cn.errs = append(cn.errs, fmt.Sprintf(format, args...))
	}
}

// do sends the next request of the plan and folds its outcome into t
// (when timed) and into the session's log.
func (cn *conn) do(t *tally, timed bool) {
	st := cn.sp.plan(cn.seed, cn.c, cn.next)
	cn.next++
	cn.steps = append(cn.steps, st)
	pay := cn.sp.payloads(cn.seed, st)
	lg := cn.logs[st.id]
	if lg == nil {
		lg = &sessionLog{}
		cn.logs[st.id] = lg
	}
	// The client head-samples on (session, per-session request index);
	// joining the same id puts this span on the frame's trace.
	var tctx obs.TraceCtx
	if cn.tracer != nil {
		id := obs.TraceID(cn.seed, st.id, lg.reqs)
		tctx = cn.tracer.Join(id)
		if timed {
			cn.traced = append(cn.traced, id)
		}
	}
	req := lg.reqs
	lg.reqs++

	span := tctx.Start(rootSpan)
	t0 := time.Now()
	var resp *serve.Response
	var err error
	if cn.sp.tags > 0 {
		resp, err = cn.client.MultiDecode(st.id, pay)
	} else {
		resp, err = cn.client.Decode(st.id, pay[0])
	}
	lat := time.Since(t0)
	span.End()

	w := cn.sp.frameWidth()
	if resp != nil && resp.Session != st.id {
		cn.violate("%s req %d: response echoes session %q", st.id, req, resp.Session)
	}
	var o tally
	o.requests = 1
	o.offered = w
	switch classify(resp, err) {
	case rejected:
		o.rejectedReqs, o.rejected = 1, w
	case failed:
		o.failedReqs, o.failed = 1, w
		cn.violate("%s req %d: request failed: %v", st.id, req, err)
	case answered:
		rec := cn.check(st.id, req, lg, resp)
		rec.timed = timed
		lg.records = append(lg.records, rec)
		if cn.sp.tags > 0 {
			for _, tr := range rec.tags {
				if tr.Delivered {
					o.delivered++
				}
				if !tr.Woke {
					o.notWoken++
				}
			}
			o.polled = len(rec.tags)
		} else {
			if rec.delivered {
				o.delivered = 1
			}
			o.noWakes = rec.noWakes
		}
		o.undelivered = w - o.delivered
		o.attempts = rec.attempts
		o.latencyMS = []float64{float64(lat.Nanoseconds()) / 1e6}
	}
	if timed {
		t.add(o)
	}
}

// check validates one OK response and turns it into a record.
func (cn *conn) check(id string, req int, lg *sessionLog, resp *serve.Response) record {
	if resp.Seq != lg.lastSeq+1 {
		cn.violate("%s req %d: seq %d after %d", id, req, resp.Seq, lg.lastSeq)
	}
	lg.lastSeq = resp.Seq
	rec := record{
		req: req, seq: resp.Seq, delivered: resp.Delivered, payloadOK: resp.PayloadOK,
		attempts: resp.Attempts, noWakes: resp.NoWakes, snr: resp.SNRdB,
		tags: append([]serve.TagResult(nil), resp.Tags...),
	}
	finite := !math.IsNaN(rec.snr) && !math.IsInf(rec.snr, 0)
	for _, tr := range rec.tags {
		finite = finite && !math.IsNaN(tr.SNRdB) && !math.IsInf(tr.SNRdB, 0)
		if tr.Delivered && !tr.PayloadOK {
			cn.violate("%s seq %d: tag delivered without a matching payload", id, resp.Seq)
		}
	}
	if !finite {
		cn.violate("%s seq %d: non-finite SNR", id, resp.Seq)
	}
	if cn.sp.tags > 0 && len(rec.tags) != cn.sp.tags {
		cn.violate("%s seq %d: %d tag results for a %d-tag group", id, resp.Seq, len(rec.tags), cn.sp.tags)
	}
	if cn.sp.tags == 0 && rec.delivered && !rec.payloadOK {
		cn.violate("%s seq %d: delivered without a matching payload", id, resp.Seq)
	}
	return rec
}

// rig is one daemon with its connected clients.
type rig struct {
	sp    spec
	srv   *serve.Server
	conns []*conn
}

// rigOptions vary what the workload's fixed configuration leaves open:
// shard count (tests only), instrumentation, and the input seed.
type rigOptions struct {
	seed   int64
	shards int
	reg    *obs.Registry
	tracer *obs.Tracer
}

// setUp builds and starts the daemon, dials the clients and sends one
// warm-up request per initial session, which realizes the session and
// fills its caches.
func setUp(sp spec, opt rigOptions) (*rig, error) {
	shards := opt.shards
	if shards == 0 {
		shards = shardsFixed
	}
	srv, err := serve.NewServer(sp.serverConfig(shards, opt.reg, opt.tracer))
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	r := &rig{sp: sp, srv: srv}
	for c := 0; c < conns; c++ {
		cl, err := serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: opt.tracer})
		if err != nil {
			r.tearDown()
			return nil, err
		}
		r.conns = append(r.conns, &conn{sp: sp, seed: opt.seed, c: c, client: cl, tracer: opt.tracer, logs: map[string]*sessionLog{}})
	}
	r.each(func(cn *conn) {
		for i := 0; i < sp.warmSteps(); i++ {
			cn.do(nil, false)
		}
	})
	return r, nil
}

// each runs f on every connection concurrently and waits.
func (r *rig) each(f func(*conn)) {
	var wg sync.WaitGroup
	for _, cn := range r.conns {
		wg.Add(1)
		go func(cn *conn) {
			defer wg.Done()
			f(cn)
		}(cn)
	}
	wg.Wait()
}

func (r *rig) tearDown() {
	for _, cn := range r.conns {
		cn.client.Close()
	}
	r.srv.Shutdown(context.Background())
}

// window bounds a measured phase: a frame budget per connection
// (budget > 0, used by tests) or a wall-clock duration, extended — up
// to four times — until minSamples requests have completed.
type window struct {
	budget     int
	dur        time.Duration
	minSamples int
}

// slices is how many equal slices a timed window is cut into. Rates are
// reported as the median over slices, so a burst of load from outside
// the benchmark moves one slice, not the result.
const slices = 10

// slice is one slice of a timed window.
type slice struct {
	wall, cpu          time.Duration
	delivered, offered int64
}

// measure runs the connections closed-loop over the window and returns
// the combined tally, the wall time it took and, for a timed window,
// its slices.
func (r *rig) measure(w window) (tally, time.Duration, []slice) {
	tallies := make([]tally, len(r.conns))
	var done, delivered, offered atomic.Int64
	type mark struct {
		at, cpu            time.Duration
		delivered, offered int64
	}
	var marks []mark
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	start := time.Now()
	if w.budget == 0 {
		marks = append(marks, mark{cpu: cpuTime()})
		tick := time.NewTicker(w.dur / slices)
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tick.C:
					marks = append(marks, mark{now.Sub(start), cpuTime(), delivered.Load(), offered.Load()})
				}
			}
		}()
	}
	soft, hard := start.Add(w.dur), start.Add(4*w.dur)
	r.each(func(cn *conn) {
		t := &tallies[cn.c]
		for n := 0; ; n++ {
			if w.budget > 0 {
				if n >= w.budget {
					return
				}
			} else if now := time.Now(); now.After(hard) || (now.After(soft) && done.Load() >= int64(w.minSamples)) {
				return
			}
			d, o := t.delivered, t.offered
			cn.do(t, true)
			delivered.Add(int64(t.delivered - d))
			offered.Add(int64(t.offered - o))
			done.Add(1)
		}
	})
	wall := time.Since(start)
	close(stop)
	sampler.Wait()
	var total tally
	for _, t := range tallies {
		total.add(t)
	}
	var sl []slice
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		sl = append(sl, slice{b.at - a.at, b.cpu - a.cpu, b.delivered - a.delivered, b.offered - a.offered})
	}
	return total, wall, sl
}

// forget drops the per-request bookkeeping: logs, steps and trace ids.
func (r *rig) forget() {
	for _, cn := range r.conns {
		cn.logs, cn.steps, cn.traced = nil, nil, nil
	}
}

// violations gathers every connection's correctness violations.
func (r *rig) violations() []string {
	var out []string
	for _, cn := range r.conns {
		out = append(out, cn.errs...)
	}
	return out
}

// digest hashes every session's response records, sessions in id
// order. Two runs that answered the same requests agree on it exactly
// when the daemon's per-session streams are deterministic.
func (r *rig) digest() string {
	logs := map[string]*sessionLog{}
	for _, cn := range r.conns {
		for id, lg := range cn.logs {
			logs[id] = lg
		}
	}
	ids := make([]string, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	var b []byte
	for _, id := range ids {
		b = append(b[:0], id...)
		for _, rec := range logs[id].records {
			b = appendRecord(b, rec)
		}
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(b))))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func appendRecord(b []byte, rec record) []byte {
	flag := func(v bool) byte {
		if v {
			return 1
		}
		return 0
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.seq))
	b = append(b, flag(rec.delivered), flag(rec.payloadOK))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.attempts))
	b = binary.LittleEndian.AppendUint64(b, uint64(rec.noWakes))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.snr))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.tags)))
	for _, t := range rec.tags {
		b = append(b, flag(t.Delivered), flag(t.PayloadOK), flag(t.Woke))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.SNRdB))
	}
	return b
}
