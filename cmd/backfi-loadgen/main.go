// Command backfi-loadgen drives a reader daemon with a closed-loop
// workload — one connection per session, each offering frames
// back-to-back — and reports offered vs. delivered throughput and tail
// latency. Latency is accounted in microseconds internally (the binary
// protocol's sub-10ms tails are invisible at millisecond grain); the
// summary reports both `_us` and the legacy `_ms` keys. With -out it
// merges the summary under -out-key (default "serving") into a
// benchmark results file (e.g. BENCH_results.json), preserving
// whatever other sections the file already holds. The workload is a
// program of the scenario engine (internal/scenario), which also
// fails the run on a broken serving invariant.
//
// Example (self-contained, no external daemon):
//
//	backfi-loadgen -selfserve -sessions 8 -frames 100 -out BENCH_results.json
//	backfi-loadgen -selfserve -proto binary -fast \
//	    -out-key serving_binary -out BENCH_results.json
//
// Multi-tag churn mode (-churn, DESIGN.md §5i) walks a heavy-tailed
// session-id stream: most ids touch the daemon once and idle out, a
// Zipf tail keeps offering jointly decoded multi-tag slots. The
// summary then also records session-memory efficiency (sessions per
// GB of heap growth) and aggregate multi-tag goodput:
//
//	backfi-loadgen -selfserve -multitag 2 -churn 100000 -ttl 300ms \
//	    -max-session-bytes 4096 -out-key serving_multitag -out BENCH_results.json
//
// Cluster mode (DESIGN.md §5j) spreads the same closed-loop workload
// across N reader nodes behind consistent-hash session routing — each
// session goroutine drives its own cluster client, so aggregate
// goodput scales with nodes when CPUs are available (the summary
// records gomaxprocs so gates can scale their expectations):
//
//	backfi-loadgen -selfserve -cluster 3 -proto binary \
//	    -out-key serving_cluster -out BENCH_results.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/cluster"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/scenario"
	"backfi/internal/serve"
	"backfi/internal/tag"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-loadgen: ")

	addr := flag.String("addr", "", "daemon address to load (empty with -selfserve)")
	addrs := flag.String("addrs", "", "comma-separated reader-node addresses: load them as a cluster behind consistent-hash session routing (nodes must run -handoff; overrides -addr)")
	selfserve := flag.Bool("selfserve", false, "spawn an in-process daemon on an ephemeral loopback port instead of dialing -addr")
	clusterNodes := flag.Int("cluster", 0, "with -selfserve, spawn this many handoff-enabled nodes and route sessions across them (DESIGN.md §5j; 0 = one plain node)")
	proto := flag.String("proto", "json", "wire protocol: json (legacy frames) or binary (zero-copy framing, DESIGN.md §5g)")
	sessions := flag.Int("sessions", 8, "concurrent sessions (one connection each)")
	frames := flag.Int("frames", 100, "frames offered per session")
	payload := flag.Int("bytes", 24, "payload bytes per frame")
	shards := flag.Int("shards", 4, "daemon shards (-selfserve only)")
	queue := flag.Int("queue", 64, "daemon per-shard queue bound (-selfserve only)")
	batch := flag.Int("batch", 16, "daemon batch bound (-selfserve only)")
	distance := flag.Float64("distance", 1, "link distance in meters (-selfserve only)")
	rho := flag.Float64("rho", 0.95, "session channel coherence (-selfserve only)")
	retries := flag.Int("retries", 2, "per-frame ARQ budget (-selfserve only)")
	seed := flag.Int64("seed", 1, "daemon base seed (-selfserve only)")
	impair := flag.Float64("impair", 0, "RF impairment severity in [0,1] (-selfserve only)")
	fastTag := flag.Bool("fast", false, "serve the fast tag configuration (16-PSK, rate 2/3, 2.5 Msym/s) instead of the default (-selfserve only)")
	adapt := flag.Bool("adapt", false, "closed-loop rate adaptation on the self-served daemon (DESIGN.md §5f, -selfserve only)")
	minSymRate := flag.Float64("min-symrate", 0, "with -adapt, restrict the ladder to symbol rates ≥ this (-selfserve only)")
	timeline := flag.String("timeline", "", "scripted fault timeline frame:severity[,...] on the self-served daemon (overrides -impair; -selfserve only)")
	harvest := flag.Float64("harvest", 0, "harvest scarcity severity in [0,1] on the self-served daemon: >0 enables the energy-aware poll scheduler (DESIGN.md §5k), so sessions mix live and dark tags by their seeded harvest traces; dark polls are retried within a budget and reported separately (-selfserve single-tag workload only)")
	mtTags := flag.Int("multitag", 0, "multi-tag group size: offer mdecode slots of this many payloads instead of single-tag frames (0 = off)")
	mtImpostor := flag.Bool("multitag-impostor", false, "add an unpolled impostor tag to every multi-tag session (-selfserve only)")
	churn := flag.Int("churn", 0, "churn mode: walk this many distinct session ids with a heavy-tailed slots-per-id profile (0 = legacy fixed-session workload)")
	churnActive := flag.Float64("churn-active", 0.02, "churn mode: fraction of ids that are active groups offering decode slots; the rest register once and idle out")
	ttl := flag.Duration("ttl", 0, "self-served daemon session TTL — idle sessions are evicted by per-shard sweeps (-selfserve only; 0 keeps sessions forever)")
	maxSessBytes := flag.Int64("max-session-bytes", 0, "churn mode gate: fail unless heap growth per churned session id stays at or below this many bytes (0 disables)")
	gateFile := flag.String("gate-baseline", "", "cluster goodput gate: JSON bench file holding the single-node baseline entry; the cluster run must reach -gate-ratio times its goodput_bps when this host has at least as many CPUs as nodes, and must at least match it otherwise")
	gateKey := flag.String("gate-baseline-key", "serving_single", "cluster goodput gate: top-level key of the baseline entry inside -gate-baseline")
	gateRatio := flag.Float64("gate-ratio", 2, "cluster goodput gate: required goodput multiple over the baseline when parallelism is available (gomaxprocs >= nodes); relaxes to 1.0 (no regression) on narrower hosts where node decode loops share cores")
	out := flag.String("out", "", "merge the run's summary into this JSON file")
	outKey := flag.String("out-key", "serving", "top-level key the summary merges under with -out")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run's sampled frames to this file (open in chrome://tracing or Perfetto)")
	traceSample := flag.Int("trace-sample", 1, "with -trace-out, head-sample 1/N frames per session into the trace")
	flag.Parse()

	switch *proto {
	case "json", "binary":
	default:
		log.Fatalf("proto: unknown protocol %q (want json or binary)", *proto)
	}
	if *harvest < 0 || *harvest > 1 {
		log.Fatalf("harvest: severity %v outside [0,1]", *harvest)
	}
	if *harvest > 0 && (!*selfserve || *clusterNodes > 1 || *addrs != "" || *churn > 0 || *mtTags > 0) {
		log.Fatal("harvest: the energy scheduler drives the plain -selfserve single-node decode workload only (no -cluster/-addrs/-churn/-multitag)")
	}
	if *impair < 0 || *impair > 1 {
		log.Fatalf("impair: severity %v outside [0,1]", *impair)
	}

	// One tracer shared by the clients and the self-served daemon: both
	// derive the same per-frame trace ids from (seed, session, index), so
	// the exported trace strings client send, serve stages, and decode
	// pipeline stages together under one id per frame.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.TracerConfig{Seed: *seed, SampleEvery: *traceSample})
	}

	h := scenario.NewHarness()
	newServer := func() *serve.Server {
		link := core.DefaultLinkConfig(*distance)
		link.Seed = *seed
		if *fastTag {
			link.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6,
				PreambleChips: tag.DefaultPreambleChips, ID: link.Tag.ID}
		}
		if *impair > 0 {
			p := fault.Standard(*impair)
			if err := p.Validate(); err != nil {
				log.Fatalf("impair: %v", err)
			}
			link.Faults = &p
		}
		cfg := serve.Config{
			Link:         link,
			CoherenceRho: *rho,
			MaxRetries:   *retries,
			Shards:       *shards,
			QueueDepth:   *queue,
			BatchMax:     *batch,
			SessionTTL:   *ttl,
			Handoff:      *clusterNodes > 1,

			MultiTagImpostor: *mtImpostor,

			Adapt:                *adapt,
			AdaptMinSymbolRateHz: *minSymRate,

			Energy:         *harvest > 0,
			EnergySeverity: *harvest,

			Tracer: tracer,
		}
		if *timeline != "" {
			tl, err := fault.ParseTimeline(*timeline)
			if err != nil {
				log.Fatalf("timeline: %v", err)
			}
			cfg.Timeline = tl
		}
		srv, err := h.Boot(cfg)
		if err != nil {
			log.Fatal(err)
		}
		return srv
	}

	var clusterAddrs []string
	if *addrs != "" {
		clusterAddrs = strings.Split(*addrs, ",")
	}
	if *clusterNodes > 1 {
		if !*selfserve {
			log.Fatal("cluster: -cluster needs -selfserve (point -addrs at external handoff-enabled nodes instead)")
		}
		if len(clusterAddrs) > 0 {
			log.Fatal("cluster: -cluster and -addrs are mutually exclusive")
		}
	}

	target := *addr
	var selfsrv *serve.Server
	if *selfserve {
		if *clusterNodes > 1 {
			for i := 0; i < *clusterNodes; i++ {
				clusterAddrs = append(clusterAddrs, newServer().Addr())
			}
			log.Printf("self-serving a %d-node handoff cluster %v (shards=%d each, proto=%s)",
				*clusterNodes, clusterAddrs, *shards, *proto)
		} else {
			selfsrv = newServer()
			target = selfsrv.Addr()
			log.Printf("self-serving on %s (shards=%d proto=%s)", target, *shards, *proto)
		}
	}
	if target == "" && len(clusterAddrs) == 0 {
		log.Fatal("need -addr, -addrs, or -selfserve")
	}
	if len(clusterAddrs) > 0 && (*churn > 0 || *mtTags > 0) {
		log.Fatal("cluster mode drives the single-tag decode workload only (no -churn / -multitag)")
	}

	run := scenario.Config{
		PayloadBytes: *payload,
		SeenIDs:      !*selfserve, // an external daemon may know the ids
		Dial: func(int) (scenario.Target, error) {
			return serve.DialClient(serve.ClientConfig{Addr: target, Proto: *proto, Tracer: tracer})
		},
	}
	switch {
	case len(clusterAddrs) > 0:
		run.Dial = func(int) (scenario.Target, error) {
			return cluster.New(cluster.Config{
				Addrs:     clusterAddrs,
				Client:    serve.ClientConfig{Proto: *proto, Tracer: tracer},
				TraceSeed: *seed,
			})
		}
	case *churn > 0:
		run.Workers = max(*sessions, 1)
	}

	var sum map[string]any
	if *churn > 0 {
		sum = runChurn(run, *seed, *churn, *mtTags, *frames, *churnActive, selfsrv)
		if *churnActive > 0 && sum["slots_offered"] == 0 {
			log.Fatalf("churn: an active fraction of %g offered no slot across %d ids — the run decoded nothing", *churnActive, *churn)
		}
		if bps := sum["bytes_per_session"].(float64); *maxSessBytes > 0 {
			if bps > float64(*maxSessBytes) {
				log.Fatalf("session-memory gate FAILED: %.0f heap bytes per churned session > %d budget", bps, *maxSessBytes)
			}
			log.Printf("session-memory gate OK: %.0f heap bytes per churned session <= %d budget", bps, *maxSessBytes)
		}
	} else {
		park := 0
		if *harvest > 0 {
			// Dark polls are retried within a budget; afterwards each
			// session keeps polling (outside the offered accounting) until
			// its tank next runs dry, so the run ends with sessions parked
			// dark mid-backoff for the harvest TTL gate. Bounded: a tank
			// that never goes dark at this severity just burns the cap.
			run.DarkRetries, park = 64, 40
		}
		run.Program = scenario.Closed("loadgen", *sessions, *frames, 0, park)
		res, err := scenario.Run(run)
		if err != nil {
			log.Fatal(err)
		}
		sum = summary(res, *payload)
		if *harvest > 0 {
			dark := 0
			for _, o := range res.Clients {
				if o.DarkPolls > 0 {
					dark++
				}
			}
			sum["dark_polls"], sum["dark_sessions"] = res.Total().DarkPolls, dark
			if *ttl > 0 && selfsrv != nil {
				if err := harvestGate(target, *proto, *ttl, run.Program, res, selfsrv); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if _, err := h.Drain(); err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = errors.Join(tracer.WriteChromeTrace(f), f.Close())
		}
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		traces, spans, dropped := tracer.Stats()
		log.Printf("wrote %s (%d traces, %d spans, %d dropped)", *traceOut, traces, spans, dropped)
	}
	sum["sessions"] = *sessions
	sum["frames_per_session"] = *frames
	sum["payload_bytes"] = *payload
	sum["proto"] = *proto
	if len(clusterAddrs) > 0 {
		sum["cluster_nodes"] = len(clusterAddrs)
	}
	if *churn > 0 {
		sum["multitag_group"] = *mtTags
		sum["multitag_impostor"] = *mtImpostor
		sum["churn_active_fraction"] = *churnActive
		sum["session_ttl_ms"] = ttl.Milliseconds()
	}
	if *selfserve {
		sum["shards"] = *shards
		if *fastTag {
			sum["fast_tag"] = true
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if *gateFile != "" {
		if len(clusterAddrs) == 0 {
			log.Fatal("gate-baseline: only meaningful for a cluster run (-cluster or -addrs)")
		}
		if err := gateGoodput(*gateFile, *gateKey, *gateRatio, len(clusterAddrs),
			sum["goodput_bps"].(float64)); err != nil {
			log.Fatal(err)
		}
	}
	if *out != "" {
		if err := benchio.Merge(*out, *outKey, sum); err != nil {
			log.Fatalf("out: %v", err)
		}
		log.Printf("merged %s entry into %s", *outKey, *out)
	}
}

// summary is the serving entry of a closed-loop run. Latencies are in
// microseconds (dark polls are counted apart, not sampled). gomaxprocs
// rides along because serving is CPU-bound: gates comparing entries
// (e.g. cluster vs. single-node goodput) must scale expectations by the
// parallelism the run actually had.
func summary(res *scenario.Result, payloadBytes int) map[string]any {
	t := res.Total()
	wall := res.Wall.Seconds()
	p50 := scenario.Quantile(t.LatencyUS, 0.50)
	p95 := scenario.Quantile(t.LatencyUS, 0.95)
	p99 := scenario.Quantile(t.LatencyUS, 0.99)
	return map[string]any{
		"offered_frames":   t.Offered,
		"delivered_frames": t.Delivered,
		"rejected_frames":  t.Rejected,
		"failed_frames":    t.Failed,
		"wall_seconds":     wall,
		"offered_fps":      float64(t.Offered) / wall,
		"delivered_fps":    float64(t.Delivered) / wall,
		"delivery_rate":    scenario.Rate(t.Delivered, t.Offered),
		"goodput_bps":      float64(t.Delivered*payloadBytes*8) / wall,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"latency_p50_us":   p50,
		"latency_p95_us":   p95,
		"latency_p99_us":   p99,
		// Millisecond keys kept for continuity with earlier entries.
		"latency_p50_ms": p50 / 1e3,
		"latency_p95_ms": p95 / 1e3,
		"latency_p99_ms": p99 / 1e3,
	}
}

// runChurn is the §5i memory-and-goodput profile: the churn program's
// ids stream through the daemon on the run's workers (see
// scenario.Churn). Besides throughput, the summary records the memory
// story the session TTL is for: heap growth per churned id and
// sessions per GB.
func runChurn(run scenario.Config, seed int64, ids, tags, slotsMax int, active float64, srv *serve.Server) map[string]any {
	run.Program = scenario.Churn(seed, ids, tags, slotsMax, active)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := scenario.Run(run)
	if err != nil {
		log.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapGrowth := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		heapGrowth = float64(after.HeapAlloc - before.HeapAlloc)
	}
	sessionsPerGB := 0.0
	if heapGrowth > 0 {
		sessionsPerGB = float64(ids) / heapGrowth * (1 << 30)
	}
	t := res.Total()
	wall := res.Wall.Seconds()
	sum := map[string]any{
		"churn_sessions":       ids,
		"stats_probes":         t.Probes,
		"slots_offered":        t.Slots,
		"tag_frames_offered":   t.Offered,
		"tag_frames_delivered": t.Delivered,
		"rejected_ops":         t.Rejected,
		"failed_ops":           t.Failed,
		"wall_seconds":         wall,
		"delivery_rate":        scenario.Rate(t.Delivered, t.Offered),
		"goodput_bps":          float64(t.Delivered*run.PayloadBytes*8) / wall,
		"heap_growth_bytes":    heapGrowth,
		"bytes_per_session":    heapGrowth / float64(ids),
		"sessions_per_gb":      sessionsPerGB,
		"latency_p50_us":       scenario.Quantile(t.LatencyUS, 0.50),
		"latency_p95_us":       scenario.Quantile(t.LatencyUS, 0.95),
		"latency_p99_us":       scenario.Quantile(t.LatencyUS, 0.99),
	}
	if srv != nil {
		sum["live_sessions_end"] = srv.Sessions()
		sum["evictions"] = srv.Evictions()
	}
	return sum
}

// harvestGate asserts the §5k eviction guard end to end: a session
// that finished the workload mid-dark-backoff (its ending dark streak
// below the backoff ceiling) must survive the TTL sweeps that run
// while everything sits idle — the daemon tracks its tank and backoff
// cursor; wiping them would turn the next wake into a fresh session
// and lose the stream. The sweep ticker fires every TTL/2 regardless
// of traffic, so sleeping two TTLs guarantees a sweep saw the idle
// sessions before the stats probes ask whether they survived (a
// wrongly evicted session comes back with zeroed stats).
func harvestGate(addr, proto string, ttl time.Duration, prog []scenario.Session, res *scenario.Result, srv *serve.Server) error {
	bp := serve.DefaultEnergyBackoff()
	ceiling := 1
	for bp.Delay(ceiling) < bp.MaxSec {
		ceiling++
	}
	var cand []int
	for s, o := range res.Clients {
		if o.EndStreak > 0 && o.EndStreak < ceiling && o.Live > 0 {
			cand = append(cand, s)
		}
	}
	if len(cand) == 0 {
		log.Printf("harvest TTL gate: no session ended mid-backoff (dark streak in (0,%d)) — nothing to assert this run", ceiling)
		return nil
	}
	time.Sleep(2*ttl + 100*time.Millisecond)
	c, err := serve.DialClient(serve.ClientConfig{Addr: addr, Proto: proto})
	if err != nil {
		return err
	}
	defer c.Close()
	for _, s := range cand {
		id, o := prog[s].ID, res.Clients[s]
		st, err := c.Stats(id)
		if err != nil {
			return fmt.Errorf("harvest TTL gate: stats %s: %w", id, err)
		}
		if st.FramesOffered == 0 {
			return fmt.Errorf("harvest TTL gate FAILED: dark session %s (streak %d < ceiling %d after %d live frames) was evicted mid-backoff — its stats came back empty", id, o.EndStreak, ceiling, o.Live)
		}
	}
	log.Printf("harvest TTL gate OK: %d dark-mid-backoff sessions survived the idle sweeps (evictions=%d)", len(cand), srv.Evictions())
	return nil
}

// gateGoodput enforces the cluster scaling contract against a
// single-node baseline entry measured with the identical workload: with
// at least one CPU per node the cluster must multiply goodput by
// ratio; on narrower hosts the node decode loops time-share cores, so
// the honest requirement is only that routing and handoff overhead
// never cost throughput (>= 1x). The achieved parallelism (gomaxprocs)
// is recorded in the cluster entry so readers can interpret the figure.
func gateGoodput(path, key string, ratio float64, nodes int, got float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate-baseline: %w", err)
	}
	var doc map[string]map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("gate-baseline %s: %w", path, err)
	}
	entry, ok := doc[key]
	if !ok {
		return fmt.Errorf("gate-baseline %s: no %q entry", path, key)
	}
	base, ok := entry["goodput_bps"].(float64)
	if !ok || base <= 0 {
		return fmt.Errorf("gate-baseline %s: %q has no positive goodput_bps", path, key)
	}
	need := ratio
	if procs := runtime.GOMAXPROCS(0); procs < nodes {
		log.Printf("cluster goodput gate: %d CPUs for %d nodes — relaxing %gx to 1x (no regression)",
			procs, nodes, ratio)
		need = 1
	}
	if got < base*need {
		return fmt.Errorf("cluster goodput gate FAILED: %.0f bps < %.2fx single-node baseline %.0f bps",
			got, need, base)
	}
	log.Printf("cluster goodput gate OK: %.0f bps >= %.2fx single-node baseline %.0f bps (%.2fx achieved)",
		got, need, base, got/base)
	return nil
}
