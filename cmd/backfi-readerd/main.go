// Command backfi-readerd is the long-running BackFi reader daemon: it
// accepts decode jobs (session id + application frame) over a
// length-prefixed TCP protocol — legacy JSON frames or the zero-copy
// binary framing, negotiated per connection from the first byte, so no
// protocol flag is needed here — shards session state by id across a
// fixed worker pool, and serves with production discipline — bounded
// queues with typed backpressure, per-job deadlines, panic isolation,
// and graceful drain on SIGINT/SIGTERM. See DESIGN.md §5e for the wire
// protocol and determinism contract.
//
// Example:
//
//	backfi-readerd -addr localhost:8337 -shards 8 -metrics-addr localhost:9090
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/parallel"
	"backfi/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-readerd: ")

	addr := flag.String("addr", "localhost:8337", "TCP listen address (host:0 picks an ephemeral port)")
	shards := flag.Int("shards", 4, "session-state shards; a session id always decodes on the same shard")
	queue := flag.Int("queue", 64, "per-shard job queue bound; a full queue rejects with queue_full")
	batch := flag.Int("batch", 16, "max queued jobs drained into one parallel decode batch")
	batchWorkers := flag.Int("batch-workers", 0, "decode concurrency inside one batch: 0 = all CPUs (results are identical for every value)")
	distance := flag.Float64("distance", 1, "AP-tag distance in meters of the session link template")
	rho := flag.Float64("rho", 0.95, "packet-to-packet channel correlation of each session")
	retries := flag.Int("retries", 2, "per-frame ARQ retry budget")
	seed := flag.Int64("seed", 1, "base seed; each session offsets it by a hash of its id")
	impair := flag.Float64("impair", 0, "RF impairment severity in [0,1]: 0 = the paper's ideal front end (DESIGN.md §5d)")
	adapt := flag.Bool("adapt", false, "closed-loop rate adaptation: each session walks the configuration ladder with hysteresis (DESIGN.md §5f)")
	minSymRate := flag.Float64("min-symrate", 0, "with -adapt, restrict the ladder to symbol rates ≥ this (slow rungs cost real decode CPU; 0 keeps all 36)")
	timeline := flag.String("timeline", "", "scripted fault timeline frame:severity[,frame:severity...] applied per session (overrides -impair; empty = none)")
	wildTimeline := flag.String("wild-timeline", "", "like -timeline but severities map through Wild instead of Standard: the tag picks up walking speed (Doppler fading) and moderate RF impairments (DESIGN.md §5k; mutually exclusive with -timeline)")
	energy := flag.Bool("energy", false, "energy-aware poll scheduler: each session carries a deterministic supercap tank; polls on a dark tag are answered tag_dark with truncated-exponential probe backoff and resume gap-free on wake (DESIGN.md §5k; incompatible with -handoff)")
	harvestSev := flag.Float64("harvest-severity", 0, "harvest scarcity in [0,1] for the session tanks: 0 = every 5 ms slot banks the full ambient harvest, 1 = every slot is scarce (implies -energy when > 0)")
	wdAfter := flag.Int("watchdog-after", 0, "SIC-health watchdog: consecutive unhealthy frames before a session degrades to the robust configuration (0 disables)")
	wdResidual := flag.Float64("watchdog-residual", -80, "SIC residual threshold in dBm above which a frame counts unhealthy")
	wdRecover := flag.Int("watchdog-recover", 0, "consecutive healthy frames to lift degraded mode (0 = default 8)")
	jobTimeout := flag.Duration("job-timeout", 0, "default per-job deadline measured from admission (0 = none)")
	sessionTTL := flag.Duration("session-ttl", 0, "evict sessions idle longer than this; each shard sweeps its own map (0 keeps sessions forever)")
	handoff := flag.Bool("handoff", false, "cluster mode: attach a portable session snapshot to every decode response and accept handoff installs, so a cluster client can move sessions between nodes with no stream divergence (DESIGN.md §5j; all nodes of one cluster must run identical configs)")
	mtImpostor := flag.Bool("multitag-impostor", false, "add an unpolled impostor tag to every multi-tag session (adversarial collisions, DESIGN.md §5i)")
	mtMax := flag.Int("multitag-max", 0, "max payloads per mdecode group (0 = default 8)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long graceful shutdown waits for admitted jobs")
	metricsAddr := flag.String("metrics-addr", "", "serve the ops surface on ADDR: /metrics, /healthz, /readyz, /debug/trace, /debug/flightrecorder, /debug/pprof/ (e.g. localhost:9090)")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1/N decode frames into the span ring (0 disables tracing, 1 traces every frame)")
	traceSeed := flag.Int64("trace-seed", 0, "trace sampling seed; a client with the same seed derives identical ids (0 = the -seed value)")
	flightOut := flag.String("flight-out", "", "arm the flight recorder's anomaly auto-dump to this JSON file (watchdog trips, panics, SIGTERM)")
	sloDelivery := flag.Float64("slo-delivery", 0.9, "SLO delivery objective: minimum delivered fraction over the rolling window")
	sloLatency := flag.Duration("slo-latency", 25*time.Millisecond, "SLO latency objective: p99 per-frame serving latency bound")
	sloWindow := flag.Duration("slo-window", time.Minute, "SLO rolling evaluation window")
	flag.Parse()

	link := core.DefaultLinkConfig(*distance)
	link.Seed = *seed
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
	if *timeline != "" && *wildTimeline != "" {
		log.Fatal("-timeline and -wild-timeline are mutually exclusive")
	}
	if *timeline != "" {
		var err error
		if tl, err = fault.ParseTimeline(*timeline); err != nil {
			log.Fatalf("timeline: %v", err)
		}
	}
	if *wildTimeline != "" {
		var err error
		if tl, err = fault.ParseWildTimeline(*wildTimeline); err != nil {
			log.Fatalf("wild-timeline: %v", err)
		}
	}
	if *harvestSev > 0 {
		*energy = true
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		parallel.SetRegistry(reg)
	}
	var tracer *obs.Tracer
	if *traceSample > 0 {
		ts := *traceSeed
		if ts == 0 {
			ts = *seed
		}
		tracer = obs.NewTracer(obs.TracerConfig{Seed: ts, SampleEvery: *traceSample})
	}
	flight := obs.NewFlightRecorder(0)
	if *flightOut != "" {
		flight.SetDumpPath(*flightOut)
	}
	slo := obs.NewSLO(obs.SLOConfig{
		Window:              *sloWindow,
		DeliveryObjective:   *sloDelivery,
		LatencyObjectiveSec: sloLatency.Seconds(),
		Obs:                 reg,
	})

	srv, err := serve.NewServer(serve.Config{
		Addr:         *addr,
		Link:         link,
		CoherenceRho: *rho,
		MaxRetries:   *retries,
		Shards:       *shards,
		QueueDepth:   *queue,
		BatchMax:     *batch,
		BatchWorkers: *batchWorkers,
		JobTimeout:   *jobTimeout,
		DrainTimeout: *drainTimeout,
		SessionTTL:   *sessionTTL,
		Handoff:      *handoff,

		MultiTagImpostor: *mtImpostor,
		MultiTagMax:      *mtMax,

		Adapt:                *adapt,
		AdaptMinSymbolRateHz: *minSymRate,
		Timeline:             tl,
		WatchdogAfter:        *wdAfter,
		WatchdogResidualDBm:  *wdResidual,
		WatchdogRecover:      *wdRecover,

		Energy:         *energy,
		EnergySeverity: *harvestSev,

		Obs:    reg,
		Tracer: tracer,
		Flight: flight,
		SLO:    slo,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	if *metricsAddr != "" {
		_, bound, err := obs.ServeOps(*metricsAddr, obs.ServeOpts{
			Registry: reg,
			Tracer:   tracer,
			Flight:   flight,
			SLO:      slo,
			Ready:    func() bool { return !srv.Draining() },
		})
		if err != nil {
			log.Fatalf("metrics-addr: %v", err)
		}
		log.Printf("ops: http://%s/metrics  health: http://%s/healthz  pprof: http://%s/debug/pprof/", bound, bound, bound)
	}
	log.Printf("listening on %s (shards=%d queue=%d batch=%d distance=%.2gm)",
		srv.Addr(), *shards, *queue, *batch, *distance)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	flight.Anomaly(obs.FlightSigterm, "", s.String(), 0)
	log.Printf("%s: draining (new jobs rejected, admitted jobs finishing)...", s)
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatalf("drain incomplete: %v", err)
	}
	log.Printf("drained cleanly")
}
