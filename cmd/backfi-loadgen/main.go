// Command backfi-loadgen drives a reader daemon with a closed-loop
// workload — one connection per session, each offering frames
// back-to-back — and reports offered vs. delivered throughput and tail
// latency. Latency is accounted in microseconds internally (the binary
// protocol's sub-10ms tails are invisible at millisecond grain); the
// summary reports both `_us` and the legacy `_ms` keys. With -out it
// merges the summary under -out-key (default "serving") into a
// benchmark results file (e.g. BENCH_results.json), preserving
// whatever other sections the file already holds.
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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/cluster"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/obs"
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
	compare := flag.Bool("compare-protos", false, "run the workload once per protocol on fresh identical daemons (best of two runs each) and exit non-zero unless binary goodput ≥ JSON goodput (-selfserve only)")
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
	if *harvest > 0 && (!*selfserve || *clusterNodes > 1 || *addrs != "" || *churn > 0 || *mtTags > 0 || *compare) {
		log.Fatal("harvest: the energy scheduler drives the plain -selfserve single-node decode workload only (no -cluster/-addrs/-churn/-multitag/-compare-protos)")
	}

	// One tracer shared by the clients and the self-served daemon: both
	// derive the same per-frame trace ids from (seed, session, index), so
	// the exported trace strings client send, serve stages, and decode
	// pipeline stages together under one id per frame.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(obs.TracerConfig{Seed: *seed, SampleEvery: *traceSample})
	}

	newServer := func() *serve.Server {
		link := core.DefaultLinkConfig(*distance)
		link.Seed = *seed
		if *fastTag {
			link.Tag = tag.Config{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6,
				PreambleChips: tag.DefaultPreambleChips, ID: link.Tag.ID}
		}
		if *impair < 0 || *impair > 1 {
			log.Fatalf("impair: severity %v outside [0,1]", *impair)
		}
		if *impair > 0 {
			p := fault.Standard(*impair)
			if err := p.Validate(); err != nil {
				log.Fatalf("impair: %v", err)
			}
			link.Faults = &p
		}
		var tl *fault.Timeline
		if *timeline != "" {
			parsed, err := fault.ParseTimeline(*timeline)
			if err != nil {
				log.Fatalf("timeline: %v", err)
			}
			tl = parsed
		}
		cfg := serve.Config{
			Addr:         "localhost:0",
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
			Timeline:             tl,

			Tracer: tracer,
		}
		if *harvest > 0 {
			cfg.Energy = true
			cfg.EnergySeverity = *harvest
			// Cold start: 60% banked, so a starved harvest actually
			// duty-cycles inside a ~100-frame workload.
			tank := serve.DefaultEnergyTank()
			tank.InitialJ = 0.6 * tank.CapacityJ
			cfg.EnergyTank = &tank
		}
		srv, err := serve.NewServer(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		return srv
	}

	if *compare {
		if !*selfserve {
			log.Fatal("compare-protos requires -selfserve (fresh identical daemons per run)")
		}
		compareProtos(newServer, *sessions, *frames, *payload)
		return
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
				srv := newServer()
				defer srv.Shutdown(context.Background())
				clusterAddrs = append(clusterAddrs, srv.Addr())
			}
			log.Printf("self-serving a %d-node handoff cluster %v (shards=%d each, proto=%s)",
				*clusterNodes, clusterAddrs, *shards, *proto)
		} else {
			selfsrv = newServer()
			defer selfsrv.Shutdown(context.Background())
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

	var sum map[string]any
	var dark []sessionDark
	var err error
	if *churn > 0 {
		var srv *serve.Server
		if *selfserve {
			srv = selfsrv
		}
		sum, err = runChurn(target, *proto, *sessions, *churn, *mtTags, *frames, *payload, *seed, *churnActive, srv)
		if err == nil && *maxSessBytes > 0 {
			if bps := sum["bytes_per_session"].(float64); bps > float64(*maxSessBytes) {
				log.Fatalf("session-memory gate FAILED: %.0f heap bytes per churned session > %d budget", bps, *maxSessBytes)
			}
			log.Printf("session-memory gate OK: %.0f heap bytes per churned session <= %d budget",
				sum["bytes_per_session"].(float64), *maxSessBytes)
		}
	} else if len(clusterAddrs) > 0 {
		sum, _, err = run(func() (frameDecoder, error) {
			return cluster.New(cluster.Config{
				Addrs:     clusterAddrs,
				Client:    serve.ClientConfig{Proto: *proto, Tracer: tracer},
				TraceSeed: *seed,
			})
		}, *sessions, *frames, *payload, 0)
	} else {
		darkRetries := 0
		if *harvest > 0 {
			darkRetries = 64
		}
		sum, dark, err = run(func() (frameDecoder, error) {
			return serve.DialClient(serve.ClientConfig{Addr: target, Proto: *proto, Tracer: tracer})
		}, *sessions, *frames, *payload, darkRetries)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *harvest > 0 && *ttl > 0 && selfsrv != nil {
		if err := harvestGate(target, *proto, *ttl, dark, selfsrv); err != nil {
			log.Fatal(err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
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

// compareProtos is the CI protocol gate: the same workload against
// fresh, identically-configured daemons — so both protocols decode the
// exact same session streams — once per protocol, best goodput of two
// runs each (absorbing scheduler noise), asserting the binary framing
// never serves slower than JSON.
func compareProtos(newServer func() *serve.Server, sessions, frames, payload int) {
	best := map[string]float64{}
	for _, proto := range []string{"json", "binary"} {
		for attempt := 0; attempt < 2; attempt++ {
			srv := newServer()
			proto := proto
			sum, _, err := run(func() (frameDecoder, error) {
				return serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), Proto: proto})
			}, sessions, frames, payload, 0)
			srv.Shutdown(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			if g := sum["goodput_bps"].(float64); g > best[proto] {
				best[proto] = g
			}
		}
		log.Printf("%s: best goodput %.0f bps", proto, best[proto])
	}
	if best["binary"] < best["json"] {
		log.Fatalf("protocol gate FAILED: binary goodput %.0f bps < json %.0f bps", best["binary"], best["json"])
	}
	log.Printf("protocol gate OK: binary %.0f bps >= json %.0f bps", best["binary"], best["json"])
}

// frameDecoder is the client surface run measures: a single-node
// serve.Client and a consistent-hash cluster.Client both satisfy it,
// so single-node and cluster entries in the bench file are produced by
// the identical measurement loop.
type frameDecoder interface {
	Decode(session string, payload []byte) (*serve.Response, error)
	Close() error
}

// sessionDark is one session's energy-scheduler outcome: how many
// polls the daemon answered tag_dark, the consecutive dark streak the
// session ended on (exact — only this client polls the session), and
// how many polls reached a live decode. The harvest TTL gate uses it
// to find sessions that finished mid-backoff.
type sessionDark struct {
	id                               string
	darkPolls, endStreak, liveFrames int
}

// run offers sessions*frames jobs closed-loop — each session goroutine
// owns one client from dial — and aggregates the outcome into the
// serving summary. Latencies are recorded in microseconds (dark polls
// are retried up to darkRetries per frame and counted separately, not
// folded into the latency sample). gomaxprocs rides along because
// serving is CPU-bound: gates comparing entries (e.g. cluster vs.
// single-node goodput) must scale expectations by the parallelism the
// run actually had.
func run(dial func() (frameDecoder, error), sessions, frames, payloadBytes, darkRetries int) (map[string]any, []sessionDark, error) {
	type sessionResult struct {
		delivered  int
		rejected   int
		failed     int
		darkPolls  int
		endStreak  int
		liveFrames int
		latencyUS  []int64
		err        error
	}
	results := make([]sessionResult, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &results[s]
			c, err := dial()
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			id := fmt.Sprintf("loadgen-%03d", s)
			for i := 0; i < frames; i++ {
				p := []byte(fmt.Sprintf("%s/%06d/", id, i))
				for len(p) < payloadBytes {
					p = append(p, byte(i))
				}
				var resp *serve.Response
				var err error
				for attempt := 0; ; attempt++ {
					t0 := time.Now()
					resp, err = c.Decode(id, p[:payloadBytes])
					lat := time.Since(t0).Microseconds()
					if errors.Is(err, serve.ErrTagDark) {
						r.darkPolls++
						r.endStreak++
						if attempt < darkRetries {
							continue
						}
					} else {
						r.endStreak = 0
						r.latencyUS = append(r.latencyUS, lat)
					}
					break
				}
				if err == nil {
					r.liveFrames++
				}
				switch {
				case err == nil && resp.Delivered:
					r.delivered++
				case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrDeadline):
					r.rejected++
				case err != nil:
					r.failed++
				}
			}
			if darkRetries > 0 {
				// Park the session mid-backoff for the harvest TTL gate:
				// the per-frame retry loop above always ends on a live
				// poll, so keep polling (no retries, outside the offered/
				// delivered accounting) until the tank next runs dry —
				// the run then ends with real dark-but-tracked sessions
				// for the eviction guard to protect. Bounded: a tank that
				// never goes dark at this severity just burns the cap.
				for extra := 0; extra < 40; extra++ {
					p := []byte(fmt.Sprintf("%s/%06d/", id, frames+extra))
					for len(p) < payloadBytes {
						p = append(p, byte(extra))
					}
					_, err := c.Decode(id, p[:payloadBytes])
					if errors.Is(err, serve.ErrTagDark) {
						r.darkPolls++
						r.endStreak++
						break
					}
					if err != nil {
						break
					}
					r.liveFrames++
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var delivered, rejected, failed, darkPolls, darkSessions int
	var lat []int64
	dark := make([]sessionDark, sessions)
	for s, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		delivered += r.delivered
		rejected += r.rejected
		failed += r.failed
		darkPolls += r.darkPolls
		if r.darkPolls > 0 {
			darkSessions++
		}
		dark[s] = sessionDark{
			id:        fmt.Sprintf("loadgen-%03d", s),
			darkPolls: r.darkPolls, endStreak: r.endStreak, liveFrames: r.liveFrames,
		}
		lat = append(lat, r.latencyUS...)
	}
	offered := sessions * frames
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p95, p99 := quantileUS(lat, 0.50), quantileUS(lat, 0.95), quantileUS(lat, 0.99)
	sum := map[string]any{
		"offered_frames":   offered,
		"delivered_frames": delivered,
		"rejected_frames":  rejected,
		"failed_frames":    failed,
		"wall_seconds":     wall,
		"offered_fps":      float64(offered) / wall,
		"delivered_fps":    float64(delivered) / wall,
		"delivery_rate":    float64(delivered) / float64(offered),
		"goodput_bps":      float64(delivered*payloadBytes*8) / wall,
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"latency_p50_us":   p50,
		"latency_p95_us":   p95,
		"latency_p99_us":   p99,
		// Millisecond keys kept for continuity with earlier entries.
		"latency_p50_ms": p50 / 1e3,
		"latency_p95_ms": p95 / 1e3,
		"latency_p99_ms": p99 / 1e3,
	}
	if darkRetries > 0 {
		sum["dark_polls"] = darkPolls
		sum["dark_sessions"] = darkSessions
	}
	return sum, dark, nil
}

// runChurn is the §5i memory-and-goodput profile: churnN distinct
// session ids stream through the daemon on `workers` connections. How
// much work each id brings follows a heavy-tailed (Zipf) draw seeded
// by (seed, id) — the realistic shape for a reader fleet, where most
// tags report rarely and a few groups poll continuously. An id with no
// tail work touches the daemon once (a stats probe realizes and then
// abandons its session); an id in the tail offers jointly decoded
// multi-tag slots of `tags` payloads (plain decodes when tags == 0).
// Besides throughput, the summary records the memory story the session
// TTL is for: heap growth per churned id and sessions per GB.
func runChurn(addr, proto string, workers, churnN, tags, slotsMax, payloadBytes int, seed int64, activeF float64, srv *serve.Server) (map[string]any, error) {
	if workers < 1 {
		workers = 1
	}
	if slotsMax < 1 {
		slotsMax = 1
	}
	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	type workerResult struct {
		probes    int
		slots     int
		offered   int // tag-frames offered in slots
		delivered int // tag-frames delivered
		rejected  int
		failed    int
		latencyUS []int64
		err       error
	}
	results := make([]workerResult, workers)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &results[w]
			c, err := serve.DialClient(serve.ClientConfig{Addr: addr, Proto: proto})
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			for {
				idx := next.Add(1) - 1
				if idx >= int64(churnN) {
					return
				}
				id := fmt.Sprintf("churn-%07d", idx)
				// Heavy-tailed work per id, a pure function of (seed, id):
				// an activeF-fraction of ids form active groups whose slot
				// count is Zipf-distributed up to slotsMax; everyone else
				// registers once and idles out.
				rng := rand.New(rand.NewSource(seed + 0x9e3779b9*idx))
				slots := 0
				if rng.Float64() < activeF {
					slots = 1
					if slotsMax > 1 {
						slots += int(rand.NewZipf(rng, 1.5, 1, uint64(slotsMax-1)).Uint64())
					}
				}
				if slots == 0 {
					// The common case: the id registers (the server opens its
					// session state, though no core session) and never
					// returns — the state the TTL sweep exists to reclaim.
					r.probes++
					if _, err := c.Stats(id); err != nil {
						r.failed++
					}
					continue
				}
				for i := 0; i < slots; i++ {
					var delivered, frames int
					var err error
					t0 := time.Now()
					if tags > 0 {
						pay := make([][]byte, tags)
						for k := range pay {
							p := []byte(fmt.Sprintf("%s/%04d/%d/", id, i, k))
							for len(p) < payloadBytes {
								p = append(p, byte(i))
							}
							pay[k] = p[:payloadBytes]
						}
						var resp *serve.Response
						resp, err = c.MultiDecode(id, pay)
						frames = tags
						if err == nil {
							for _, tr := range resp.Tags {
								if tr.Delivered {
									delivered++
								}
							}
						}
					} else {
						p := []byte(fmt.Sprintf("%s/%04d/", id, i))
						for len(p) < payloadBytes {
							p = append(p, byte(i))
						}
						var resp *serve.Response
						resp, err = c.Decode(id, p[:payloadBytes])
						frames = 1
						if err == nil && resp.Delivered {
							delivered = 1
						}
					}
					r.latencyUS = append(r.latencyUS, time.Since(t0).Microseconds())
					r.slots++
					r.offered += frames
					r.delivered += delivered
					switch {
					case err == nil:
					case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining) || errors.Is(err, serve.ErrDeadline):
						r.rejected++
					default:
						r.failed++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	var probes, slots, offered, delivered, rejected, failed int
	var lat []int64
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		probes += r.probes
		slots += r.slots
		offered += r.offered
		delivered += r.delivered
		rejected += r.rejected
		failed += r.failed
		lat = append(lat, r.latencyUS...)
	}

	runtime.GC()
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	heapGrowth := float64(0)
	if msAfter.HeapAlloc > msBefore.HeapAlloc {
		heapGrowth = float64(msAfter.HeapAlloc - msBefore.HeapAlloc)
	}
	bytesPerSession := heapGrowth / float64(churnN)
	sessionsPerGB := 0.0
	if heapGrowth > 0 {
		sessionsPerGB = float64(churnN) / heapGrowth * (1 << 30)
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sum := map[string]any{
		"churn_sessions":       churnN,
		"stats_probes":         probes,
		"slots_offered":        slots,
		"tag_frames_offered":   offered,
		"tag_frames_delivered": delivered,
		"rejected_ops":         rejected,
		"failed_ops":           failed,
		"wall_seconds":         wall,
		"delivery_rate":        rate(delivered, offered),
		"goodput_bps":          float64(delivered*payloadBytes*8) / wall,
		"heap_growth_bytes":    heapGrowth,
		"bytes_per_session":    bytesPerSession,
		"sessions_per_gb":      sessionsPerGB,
		"latency_p50_us":       quantileUS(lat, 0.50),
		"latency_p95_us":       quantileUS(lat, 0.95),
		"latency_p99_us":       quantileUS(lat, 0.99),
	}
	if srv != nil {
		sum["live_sessions_end"] = srv.Sessions()
		sum["evictions"] = srv.Evictions()
	}
	return sum, nil
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
func harvestGate(addr, proto string, ttl time.Duration, dark []sessionDark, srv *serve.Server) error {
	bp := serve.DefaultEnergyBackoff()
	ceiling := 1
	for bp.Delay(ceiling) < bp.MaxSec {
		ceiling++
	}
	var cand []sessionDark
	for _, d := range dark {
		if d.endStreak > 0 && d.endStreak < ceiling && d.liveFrames > 0 {
			cand = append(cand, d)
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
	for _, d := range cand {
		st, err := c.Stats(d.id)
		if err != nil {
			return fmt.Errorf("harvest TTL gate: stats %s: %w", d.id, err)
		}
		if st.FramesOffered == 0 {
			return fmt.Errorf("harvest TTL gate FAILED: dark session %s (streak %d < ceiling %d after %d live frames) was evicted mid-backoff — its stats came back empty", d.id, d.endStreak, ceiling, d.liveFrames)
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

// rate is a zero-guarded ratio.
func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// quantileUS returns the q-th latency quantile in microseconds
// (nearest-rank on the sorted sample).
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}
