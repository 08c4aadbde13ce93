// Command readerbench is the repository's serving benchmark: it runs
// one workload against an in-process reader daemon (serve.Server) over
// loopback with the binary protocol, from one process with two
// closed-loop client connections, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are end to end: goodput, latency, delivery
// and CPU per frame, heap and set-up time, measured with tracing off.
// With --trace 1 the daemon's tracer and metrics registry are switched
// on and the metrics are per layer: self time per frame of each stage,
// from the spans of every timed frame, plus the counters that explain
// them. Any failed correctness check exits non-zero.
//
// Run it from the repository root through its build script:
//
//	bash readerbench/run.sh --workload fault_2m --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"backfi/internal/obs"
)

// setups is how many times a --trace 0 run builds its daemon and
// clients; setup_s is their median.
const setups = 9

// traceCapacity sizes the span ring so a traced run drops nothing: a
// frame records a few dozen spans, and the traced side of a --trace 1
// run serves a few thousand frames.
const traceCapacity = 1 << 20

func main() {
	log.SetFlags(0)
	log.SetPrefix("readerbench: ")
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		log.Print(err)
	}
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints a run's metrics as they are added and accumulates them
// with its correctness violations.
type report struct {
	out        io.Writer
	metrics    map[string]metric
	violations []string
	attempted  int
	failed     int
}

func (rp *report) add(name string, v float64, unit, note string) {
	rp.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(rp.out, "  %-28s %14.6g %-6s%s\n", name, v, unit, note)
}

func (rp *report) violate(msgs ...string) { rp.violations = append(rp.violations, msgs...) }

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("readerbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: session ids and payload bytes")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	sp, ok := lookupSpec(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))

	env, _ := json.Marshal(environment(*seed))
	fmt.Fprintf(out, "workload %s: %s\nenv %s\n", sp.name, sp.why, env)
	rp := &report{out: out, metrics: map[string]metric{}}
	var err error
	if *trace == 1 {
		err = perLayer(rp, sp, *seed, dur)
	} else {
		err = endToEnd(rp, sp, *seed, dur)
	}
	if err != nil {
		return 1, err
	}
	for _, v := range rp.violations {
		fmt.Fprintf(out, "VIOLATION %s\n", v)
	}
	res := result{Correct: len(rp.violations) == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: rp.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1, errors.New("correctness check failed")
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// phase is one measured window's outcome and process costs.
type phase struct {
	tally
	slices     []slice
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measurePhase runs r over w, bracketing it with process CPU and Go
// runtime counters.
func measurePhase(r *rig, w window) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t, wall, sl := r.measure(w)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return phase{
		tally: t, slices: sl, wall: wall, cpu: c1 - c0,
		mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// heapInuseMiB is HeapInuse after forced GCs; the second one also
// empties the sync.Pool victim caches.
func heapInuseMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// checkPhase applies the per-phase correctness checks: frame
// accounting, no failed requests and the workload's delivery floor.
func (rp *report) checkPhase(sp spec, label string, ph phase) {
	rp.attempted += ph.requests
	rp.failed += ph.rejectedReqs + ph.failedReqs
	if err := ph.checkAccounting(); err != nil {
		rp.violate(label + ": " + err.Error())
	}
	if ph.failedReqs > 0 {
		rp.violate(fmt.Sprintf("%s: %d failed requests", label, ph.failedReqs))
	}
	if d := ratio(float64(ph.delivered), float64(ph.offered)); d < sp.floor {
		rp.violate(fmt.Sprintf("%s: delivery_rate %.4f below the %s floor %.2f", label, d, sp.name, sp.floor))
	}
	if ph.requests == 0 {
		rp.violate(label + ": no request completed")
	}
}

// kbps is the whole window's byte-exact delivered payload kilobits per
// wall second.
func (ph phase) kbps(sp spec) float64 {
	return float64(ph.delivered*sp.payload*8) / ph.wall.Seconds() / 1e3
}

// goodputKbps is the median of kbps over the window's slices.
func goodputKbps(sp spec, ph phase) float64 {
	var xs []float64
	for _, s := range ph.slices {
		xs = append(xs, float64(s.delivered)*float64(sp.payload*8)/s.wall.Seconds()/1e3)
	}
	return median(xs)
}

// cpuMsPerFrame is the median over the window's slices of process CPU
// per offered tag-frame.
func cpuMsPerFrame(ph phase) float64 {
	var xs []float64
	for _, s := range ph.slices {
		if s.offered > 0 {
			xs = append(xs, float64(s.cpu.Nanoseconds())/1e6/float64(s.offered))
		}
	}
	return median(xs)
}

// endToEnd is the --trace 0 run: set up several times, then measure
// the last rig with tracing off.
func endToEnd(rp *report, sp spec, seed int64, dur time.Duration) error {
	var setupS []float64
	var r *rig
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		rr, err := setUp(sp, rigOptions{seed: seed})
		if err != nil {
			return fmt.Errorf("set up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			rr.tearDown()
			rp.violate(rr.violations()...)
			continue
		}
		r = rr
	}
	ph := measurePhase(r, window{dur: dur, minSamples: minP99Samples})
	lat := append([]float64(nil), ph.latencyMS...)
	sort.Float64s(lat)
	p50, _, _ := percentile(lat, 50)
	p99, beyond, ok := percentile(lat, 99)
	samples := len(lat)
	digest := r.digest()
	// The heap is read with the daemon still up but without the
	// benchmark's per-request bookkeeping, which grows with throughput.
	ph.latencyMS = nil
	r.forget()
	heap := heapInuseMiB()
	r.tearDown()
	rp.violate(r.violations()...)
	rp.checkPhase(sp, "measured", ph)

	p99note := fmt.Sprintf("n=%d, %d beyond", samples, beyond)
	if !ok {
		p99note += fmt.Sprintf("; fewer than %d beyond, not a supported p99", minBeyond)
	}
	fmt.Fprintf(rp.out, "end to end, tracing off: %d requests, %d tag-frames offered in %.3f s; digest %s\n",
		ph.requests, ph.offered, ph.wall.Seconds(), digest)
	rp.add("goodput_kbps", goodputKbps(sp, ph), "kbps", fmt.Sprintf("median of %d slices; whole window %.4g",
		len(ph.slices), ph.kbps(sp)))
	rp.add("latency_p50_ms", p50, "ms", fmt.Sprintf("n=%d", samples))
	rp.add("latency_p99_ms", p99, "ms", p99note)
	rp.add("delivery_rate", ratio(float64(ph.delivered), float64(ph.offered)), "ratio",
		fmt.Sprintf("%d of %d tag-frames", ph.delivered, ph.offered))
	fmt.Fprintf(rp.out, "  %-28s %14.6g %-6s  (%d rejected + %d failed of %d requests; reported as failed/attempted)\n",
		"fail_rate", ratio(float64(ph.rejectedReqs+ph.failedReqs), float64(ph.requests)), "ratio",
		ph.rejectedReqs, ph.failedReqs, ph.requests)
	rp.add("cpu_ms_per_frame", cpuMsPerFrame(ph), "ms", fmt.Sprintf("process user+sys CPU per offered tag-frame, median of %d slices; whole window %.4g",
		len(ph.slices), ratio(float64(ph.cpu.Nanoseconds())/1e6, float64(ph.offered))))
	rp.add("heap_mb", heap, "MiB", "HeapInuse after forced GCs")
	rp.add("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups %s", setups, fmtSeconds(setupS)))
	return nil
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Registry series the per-layer report reads.
var (
	faultKindsPerPacket = []string{"cfo", "sco", "phase_noise", "interference_burst", "truncate", "wake_drop", "ack_drop"}
	readerFailStages    = []string{"sic_train", "channel_estimate", "preamble_room", "payload_room", "frame_crc"}
)

func counterDelta(a, b *obs.Snapshot, name, labels string) float64 {
	return float64(b.Counter(name, labels) - a.Counter(name, labels))
}

func histDelta(a, b *obs.Snapshot, name, labels string) (count, sum float64) {
	hb, _ := b.Histogram(name, labels)
	ha, _ := a.Histogram(name, labels)
	return float64(hb.Count - ha.Count), hb.Sum - ha.Sum
}

func label(k, v string) string { return fmt.Sprintf("{%s=%q}", k, v) }

// chunk is how long one side of the per-layer run serves before the
// other side takes over. Alternating short chunks exposes both sides to
// the same machine load, so their goodput ratio is the tracing cost;
// and a chunk stays far below the session TTL, so the idle side never
// loses a session mid-burst.
const chunk = 250 * time.Millisecond

// absorb adds another chunk of the same rig to p.
func (p *phase) absorb(o phase) {
	p.tally.add(o.tally)
	p.wall += o.wall
	p.cpu += o.cpu
	p.mallocs += o.mallocs
	p.allocBytes += o.allocBytes
	p.gcPause += o.gcPause
}

// interleave serves a and b in alternating chunks, each for about
// `each` in total, and returns each side's summed phase.
func interleave(a, b *rig, each time.Duration) (pa, pb phase) {
	rigs, phases := [2]*rig{a, b}, [2]*phase{&pa, &pb}
	runtime.GC()
	for round := 0; pa.wall < each || pb.wall < each; round++ {
		for k := 0; k < 2; k++ {
			i := (round + k) % 2 // alternate which side goes first
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c0 := cpuTime()
			t, wall, _ := rigs[i].measure(window{dur: chunk})
			c1 := cpuTime()
			runtime.ReadMemStats(&m1)
			phases[i].absorb(phase{
				tally: t, wall: wall, cpu: c1 - c0,
				mallocs: m1.Mallocs - m0.Mallocs, allocBytes: m1.TotalAlloc - m0.TotalAlloc,
				gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
			})
		}
	}
	return pa, pb
}

// perLayer is the --trace 1 run. An untraced daemon (the overhead
// baseline and the Go runtime costs) and a daemon with its tracer and
// metrics registry on (stage times and counters) serve in alternating
// chunks; then the traced daemon's frames are replayed in process on
// bare core sessions.
func perLayer(rp *report, sp spec, seed int64, dur time.Duration) error {
	r, err := setUp(sp, rigOptions{seed: seed})
	if err != nil {
		return fmt.Errorf("set up: %w", err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{Seed: seed, Capacity: traceCapacity})
	rt, err := setUp(sp, rigOptions{seed: seed, reg: reg, tracer: tr})
	if err != nil {
		r.tearDown()
		return fmt.Errorf("set up traced: %w", err)
	}
	s0 := reg.Snapshot()
	base, ph := interleave(r, rt, dur/4)
	s1 := reg.Snapshot()
	created, evicted := rt.srv.Sessions()+rt.srv.Evictions(), rt.srv.Evictions()
	r.tearDown()
	rt.tearDown()
	rp.violate(r.violations()...)
	rp.violate(rt.violations()...)
	rp.checkPhase(sp, "untraced", base)
	rp.checkPhase(sp, "traced", ph)

	_, spans, dropped := tr.Stats()
	if dropped > 0 {
		rp.violate(fmt.Sprintf("trace ring dropped %d of %d spans", dropped, spans))
	}
	ids := map[uint64]bool{}
	for _, cn := range rt.conns {
		for _, id := range cn.traced {
			ids[id] = true
		}
	}
	self, total, frames := traceReport(tr.Events(), ids)
	if frames != ph.requests {
		rp.violate(fmt.Sprintf("%d timed requests but %d traced frames", ph.requests, frames))
	}

	ip, err := replay(rt, dur/4)
	if err != nil {
		return fmt.Errorf("in-process replay: %w", err)
	}

	perFrame := func(ns int64) float64 { return ratio(float64(ns)/1e3, float64(frames)) }
	reqs := float64(ph.requests)
	w := float64(sp.frameWidth())
	fmt.Fprintf(rp.out, "per layer, alternating %v chunks: untraced %d requests in %.3f s, traced %d requests in %.3f s (%d spans); times are per request\n",
		chunk, base.requests, base.wall.Seconds(), ph.requests, ph.wall.Seconds(), spans)
	fmt.Fprintf(rp.out, "in-process replay reproduced %d of %d daemon records\n", ip.matched, ip.checked)

	rp.add("serve.rtt_us", perFrame(total[rootSpan]), "us", "client-observed time, traced")
	rp.add("serve.overhead_us", perFrame(total[rootSpan]-total["decode"]), "us", "client RTT minus the daemon decode span")
	rp.add("serve.client_us", perFrame(self["client_send"]), "us", "client encode, socket and decode")
	rp.add("serve.conn_read_us", perFrame(self["conn_read"]), "us", "")
	rp.add("serve.queue_wait_us", perFrame(self["queue_wait"]), "us", "")
	rp.add("serve.batch_us", perFrame(self["batch"]), "us", "")
	rp.add("serve.resp_write_us", perFrame(self["resp_write"]), "us", "")
	n, sum := histDelta(s0, s1, obs.MetricServeBatchJobs, "")
	rp.add("serve.batch_jobs", ratio(sum, n), "jobs", "mean jobs per shard batch")
	rp.add("serve.sessions_created", float64(created), "count", "including set-up")
	rp.add("serve.evictions", float64(evicted), "count", "")

	rp.add("core.session_us", perFrame(self["decode"]), "us", "ARQ loop and channel evolution")
	rp.add("core.excitation_build_us", perFrame(self["excitation_build"]), "us", "")
	rp.add("core.channel_sim_us", perFrame(self["channel_sim"]), "us", "")
	hit := counterDelta(s0, s1, obs.MetricLinkCache, label("outcome", "hit"))
	miss := counterDelta(s0, s1, obs.MetricLinkCache, label("outcome", "miss"))
	rp.add("core.cache_hit_ratio", ratio(hit, hit+miss), "ratio", fmt.Sprintf("%.0f hits, %.0f misses", hit, miss))
	rp.add("core.attempts_per_frame", ratio(float64(ph.attempts), reqs), "count", "")
	if sp.tags > 0 {
		rp.add("core.no_wake_ratio", ratio(float64(ph.notWoken), float64(ph.polled)), "ratio", "tags not woken per tag polled")
	} else {
		rp.add("core.no_wake_ratio", ratio(float64(ph.noWakes), float64(ph.attempts)), "ratio", "no-wake attempts per attempt")
	}
	rp.add("core.send_us", ratio(float64(ip.sendNS)/1e3, float64(ip.frames)), "us",
		fmt.Sprintf("in process, no daemon, %d frames", ip.frames))

	var injected float64
	for _, k := range faultKindsPerPacket {
		injected += counterDelta(s0, s1, obs.MetricFaultsInjected, label("kind", k))
	}
	rp.add("fault.injected_per_frame", ratio(injected, reqs), "count", "per-packet impairments: "+strings.Join(faultKindsPerPacket, ","))

	rp.add("sic.train_us", perFrame(total["sic_train"]), "us", "analog + digital")
	rp.add("sic.cancel_us", perFrame(self["sic_cancel"]), "us", "")
	rp.add("sic.cancellation_db", ratio(ip.cancelDB, float64(ip.cancels)), "dB", fmt.Sprintf("mean over %d replayed decodes", ip.cancels))

	rp.add("reader.decode_other_us", perFrame(self["decode_total"]), "us", "decode time outside the named stages")
	rp.add("reader.channel_estimate_us", perFrame(self["channel_estimate"]), "us", "")
	rp.add("reader.timing_search_us", perFrame(self["timing_search"]), "us", "")
	rp.add("reader.mrc_us", perFrame(self["mrc"]), "us", "")
	rp.add("reader.viterbi_us", perFrame(self["viterbi"]), "us", "")
	var fails float64
	for _, k := range readerFailStages {
		fails += counterDelta(s0, s1, obs.MetricStageFailures, label("stage", k))
	}
	decodes, _ := histDelta(s0, s1, obs.MetricStageDuration, label("stage", "decode_total"))
	rp.add("reader.frame_fail_ratio", ratio(fails, decodes*w), "ratio", "reader decode failures per tag-frame decoded")

	rp.add("go.allocs_per_frame", ratio(float64(base.mallocs), float64(base.requests)), "count", "untraced chunks")
	rp.add("go.alloc_kb_per_frame", ratio(float64(base.allocBytes)/1024, float64(base.requests)), "KiB", "untraced chunks")
	rp.add("go.gc_pause_ms", ratio(float64(base.gcPause.Nanoseconds())/1e6, base.wall.Seconds()), "ms/s", "stop-the-world pause per second, untraced chunks")

	rp.add("trace.dropped_spans", float64(dropped), "count", "")
	gu, gt := base.kbps(sp), ph.kbps(sp)
	rp.add("trace.overhead_pct", 100*ratio(gu-gt, gu), "%", fmt.Sprintf("goodput %.2f kbps untraced vs %.2f traced", gu, gt))
	return nil
}

// environment records what a result was measured on.
func environment(seed int64) map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"seed":       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value == "true"
			}
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
