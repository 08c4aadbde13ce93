// Command backfi-chaos is the soak-and-chaos harness for the serving
// path: it boots two in-process reader daemons from the same link
// template — one fixed-rate, one with the closed-loop rate controller
// and SIC watchdog on — drives both through a scripted interference
// timeline while killing client connections on a fixed cadence, and
// asserts the robustness contract: the adaptive daemon's delivery
// rate must clear an absolute floor AND a multiple of the fixed
// daemon's rate, every connection kill must heal through the client's
// seeded-backoff redial path, and shutdown must leak zero goroutines.
//
// The default regime is calibrated to the paper's operating envelope:
// at 6 m with a severity-0.1 interference ramp from frame 5, the
// fixed template (QPSK 1/2 @ 1 Msym/s) delivers ~30% while the
// controller converges to BPSK 1/2 @ 0.5 Msym/s and delivers ~75%.
//
// With -out it merges a "chaos" entry into a benchmark results file
// (e.g. BENCH_results.json), preserving other sections. A failed
// assertion exits non-zero, so CI can gate on it directly.
//
// Example:
//
//	backfi-chaos -sessions 4 -frames 60 -out BENCH_results.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/cluster"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-chaos: ")

	distance := flag.Float64("distance", 6, "AP-tag distance in meters (the default regime is calibrated at 6 m)")
	timeline := flag.String("timeline", "0:0,5:0.1", "scripted fault timeline frame:severity[,frame:severity...]")
	sessions := flag.Int("sessions", 4, "concurrent sessions per daemon (one self-healing connection each)")
	frames := flag.Int("frames", 60, "frames offered per session")
	payload := flag.Int("bytes", 24, "payload bytes per frame")
	rho := flag.Float64("rho", 0.9, "packet-to-packet channel coherence")
	retries := flag.Int("retries", 1, "per-frame ARQ retry budget")
	seed := flag.Int64("seed", 1, "daemon base seed; each session offsets it by a hash of its id")
	shards := flag.Int("shards", 4, "daemon shards")
	minSymRate := flag.Float64("min-symrate", 500e3, "adaptation ladder floor in symbols/s (slow rungs cost real decode CPU)")
	wdAfter := flag.Int("watchdog-after", 2, "consecutive unhealthy SIC frames before degraded mode on the adaptive daemon (0 disables)")
	wdResidual := flag.Float64("watchdog-residual", -80, "SIC residual threshold in dBm above which a frame counts unhealthy")
	wdRecover := flag.Int("watchdog-recover", 8, "consecutive healthy frames to lift degraded mode")
	killEvery := flag.Int("kill-every", 15, "sever each session's connection every N frames (0 disables connection chaos)")
	clusterN := flag.Int("cluster", 0, "run the cluster chaos harness instead: boot N handoff-enabled nodes plus a single-node control, hard-kill one node mid-soak, and assert every session heals onto a survivor with a byte-identical stream (0 disables; needs >= 2)")
	energyMode := flag.Bool("energy", false, "run the energy soak instead: sweep -energy-severities on an energy-aware daemon under the -wild-timeline mobility script, asserting gap-free wake resume, the delivery floor at the baseline severity, and dark→wake cycling at the starved one (DESIGN.md §5k; -distance defaults to 1 m in this mode)")
	energySevs := flag.String("energy-severities", "0,0.9,1", "energy mode: comma-separated harvest severities in [0,1], swept in order — the first is the baseline -floor applies to, the last must cycle dark")
	wildTimeline := flag.String("wild-timeline", "0:0,5:0.4", "energy mode: mobility fault timeline frame:severity[,frame:severity...] parsed with Wild severities (the tag picks up speed and moderate RF impairments)")
	killAt := flag.Int("kill-at", 0, "cluster mode: hard-kill the victim node when the first session reaches this frame (0 = frames/3)")
	minRatio := flag.Float64("min-ratio", 2, "assert adaptive delivery ≥ this multiple of fixed delivery (0 disables)")
	floor := flag.Float64("floor", 0.45, "assert adaptive delivery rate ≥ this absolute floor (0 disables)")
	out := flag.String("out", "", "merge the run's summary under a \"chaos\" key in this JSON file")
	flightOut := flag.String("flight-out", "", "write the flight recorder's event dump to this JSON file (also armed for anomaly auto-dump)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()

	goroutinesStart := runtime.NumGoroutine()

	if *energyMode {
		if *clusterN > 0 {
			log.Fatal("-energy and -cluster are mutually exclusive")
		}
		// The 6 m default distance is calibrated for the adaptive-vs-
		// fixed regime; the energy soak runs a fixed-rate daemon, so it
		// defaults to the paper's 1 m headline point unless -distance
		// was given explicitly.
		dist := 1.0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "distance" {
				dist = *distance
			}
		})
		sevs, err := parseSeverities(*energySevs)
		if err != nil {
			log.Fatalf("energy-severities: %v", err)
		}
		link := core.DefaultLinkConfig(dist)
		link.Seed = *seed
		energySoak(energyParams{
			severities: sevs, wildTimeline: *wildTimeline,
			sessions: *sessions, frames: *frames, payloadBytes: *payload,
			link: link, rho: *rho, retries: *retries, shards: *shards,
			floor: *floor, goroutinesStart: goroutinesStart,
			out: *out, flightOut: *flightOut,
		})
		return
	}

	tlSpec := *timeline
	link := core.DefaultLinkConfig(*distance)
	link.Seed = *seed

	if *clusterN > 0 {
		if *clusterN < 2 {
			log.Fatalf("cluster mode needs at least 2 nodes, got %d", *clusterN)
		}
		at := *killAt
		if at <= 0 {
			at = *frames / 3
		}
		clusterChaos(clusterParams{
			nodes: *clusterN, sessions: *sessions, frames: *frames,
			payloadBytes: *payload, killAt: at, seed: *seed,
			link: link, rho: *rho, retries: *retries, shards: *shards,
			timeline: tlSpec, minSymRate: *minSymRate,
			goroutinesStart: goroutinesStart,
			out:             *out, flightOut: *flightOut, traceOut: *traceOut,
		})
		return
	}

	// One tracer and one flight recorder span the whole run — both
	// daemons and every client — so a watchdog trip on the adaptive
	// daemon lands next to the connection kills that bracketed it, each
	// carrying the trace id of the frame that tripped it. Every frame is
	// traced (SampleEvery 1): chaos runs are short and the point is a
	// complete black-box record, not a sampled one.
	tracer := obs.NewTracer(obs.TracerConfig{Seed: *seed, SampleEvery: 1})
	flight := obs.NewFlightRecorder(0)
	if *flightOut != "" {
		flight.SetDumpPath(*flightOut)
	}

	// One daemon per policy; same template, same scripted faults. Each
	// parses its own Timeline (the spec is immutable but keeping them
	// separate mirrors two independent deployments).
	boot := func(adaptive bool) *serve.Server {
		tl, err := fault.ParseTimeline(tlSpec)
		if err != nil {
			log.Fatalf("timeline: %v", err)
		}
		cfg := serve.Config{
			Addr:         "localhost:0",
			Link:         link,
			CoherenceRho: *rho,
			MaxRetries:   *retries,
			Shards:       *shards,
			Timeline:     tl,
			Obs:          obs.NewRegistry(),
			Tracer:       tracer,
			Flight:       flight,
		}
		if adaptive {
			cfg.Adapt = true
			cfg.AdaptMinSymbolRateHz = *minSymRate
			cfg.WatchdogAfter = *wdAfter
			cfg.WatchdogResidualDBm = *wdResidual
			cfg.WatchdogRecover = *wdRecover
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

	fixedSrv := boot(false)
	adaptSrv := boot(true)
	log.Printf("fixed daemon on %s, adaptive daemon on %s (distance=%.3gm timeline=%q)",
		fixedSrv.Addr(), adaptSrv.Addr(), *distance, tlSpec)

	fixed, err := soak(fixedSrv.Addr(), *sessions, *frames, *payload, *killEvery, *seed, flight)
	if err != nil {
		log.Fatalf("fixed daemon: %v", err)
	}
	adaptive, err := soak(adaptSrv.Addr(), *sessions, *frames, *payload, *killEvery, *seed, flight)
	if err != nil {
		log.Fatalf("adaptive daemon: %v", err)
	}

	if err := fixedSrv.Shutdown(context.Background()); err != nil {
		log.Fatalf("fixed drain: %v", err)
	}
	if err := adaptSrv.Shutdown(context.Background()); err != nil {
		log.Fatalf("adaptive drain: %v", err)
	}

	// Both daemons are down and every client closed: whatever goroutines
	// remain beyond the baseline are leaks. Poll briefly — conn handlers
	// unwind asynchronously after Shutdown returns.
	goroutinesEnd := runtime.NumGoroutine()
	for wait := 0; goroutinesEnd > goroutinesStart && wait < 100; wait++ {
		time.Sleep(20 * time.Millisecond)
		goroutinesEnd = runtime.NumGoroutine()
	}

	ratio := 0.0
	if fixed.DeliveryRate > 0 {
		ratio = adaptive.DeliveryRate / fixed.DeliveryRate
	} else if adaptive.DeliveryRate > 0 {
		ratio = adaptive.DeliveryRate / (1.0 / float64(adaptive.Offered)) // lower bound: fixed delivered < 1 frame
	}

	traces, spans, droppedSpans := tracer.Stats()
	sum := map[string]any{
		"distance_m":         *distance,
		"timeline":           tlSpec,
		"sessions":           *sessions,
		"frames_per_session": *frames,
		"retries":            *retries,
		"rho":                *rho,
		"kill_every":         *killEvery,
		"fixed":              fixed,
		"adaptive":           adaptive,
		"adaptive_vs_fixed":  ratio,
		"min_ratio":          *minRatio,
		"floor":              *floor,
		"goroutines_start":   goroutinesStart,
		"goroutines_end":     goroutinesEnd,
		"flight_events":      len(flight.Events()),
		"watchdog_trips":     flight.Count(obs.FlightWatchdogTrip),
		"redial_events":      flight.Count(obs.FlightRedial),
		"conn_broken_events": flight.Count(obs.FlightConnBroken),
		"traces":             traces,
		"trace_spans":        spans,
		"trace_spans_drop":   droppedSpans,
	}

	var failures []string
	if *minRatio > 0 && ratio < *minRatio {
		failures = append(failures, fmt.Sprintf("adaptive/fixed delivery ratio %.2f below required %.2f (adaptive %.3f, fixed %.3f)",
			ratio, *minRatio, adaptive.DeliveryRate, fixed.DeliveryRate))
	}
	if *floor > 0 && adaptive.DeliveryRate < *floor {
		failures = append(failures, fmt.Sprintf("adaptive delivery rate %.3f below floor %.3f", adaptive.DeliveryRate, *floor))
	}
	if *killEvery > 0 && adaptive.Redials < adaptive.ConnKills {
		failures = append(failures, fmt.Sprintf("adaptive clients healed %d of %d connection kills", adaptive.Redials, adaptive.ConnKills))
	}
	if goroutinesEnd > goroutinesStart {
		failures = append(failures, fmt.Sprintf("goroutine leak: %d before, %d after shutdown", goroutinesStart, goroutinesEnd))
	}
	// Satellite assertions on the black-box record itself: every scripted
	// connection kill must leave a conn_broken event AND a healing redial
	// event, and the adaptive daemon's watchdog trip must carry the trace
	// id of the frame that tripped it (the flight recorder and tracer are
	// cross-linked, not independent logs).
	totalKills := fixed.ConnKills + adaptive.ConnKills
	if *killEvery > 0 {
		if n := flight.Count(obs.FlightConnBroken); n < totalKills {
			failures = append(failures, fmt.Sprintf("flight recorder saw %d conn_broken events for %d connection kills", n, totalKills))
		}
		if n := flight.Count(obs.FlightRedial); n < totalKills {
			failures = append(failures, fmt.Sprintf("flight recorder saw %d redial events for %d connection kills", n, totalKills))
		}
	}
	if *wdAfter > 0 {
		trippedWithTrace := false
		for _, ev := range flight.Events() {
			if ev.Kind == obs.FlightWatchdogTrip && ev.Trace != 0 {
				trippedWithTrace = true
				break
			}
		}
		if !trippedWithTrace {
			failures = append(failures, "no watchdog_trip flight event with a linked trace id (did the interference regime change?)")
		}
	}
	sum["pass"] = len(failures) == 0

	if *flightOut != "" {
		if err := flight.DumpFile(*flightOut); err != nil {
			log.Fatalf("flight-out: %v", err)
		}
		log.Printf("wrote flight dump %s (%d events)", *flightOut, len(flight.Events()))
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
		log.Printf("wrote %s (%d traces, %d spans)", *traceOut, traces, spans)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := benchio.Merge(*out, "chaos", sum); err != nil {
			log.Fatalf("out: %v", err)
		}
		log.Printf("merged chaos entry into %s", *out)
	}
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Printf("pass: adaptive %.3f vs fixed %.3f (%.2fx), %d conn kills healed by %d redials",
		adaptive.DeliveryRate, fixed.DeliveryRate, ratio, adaptive.ConnKills, adaptive.Redials)
}

// soakResult aggregates one daemon's soak outcome across sessions.
type soakResult struct {
	Offered      int     `json:"offered_frames"`
	Delivered    int     `json:"delivered_frames"`
	Failed       int     `json:"failed_frames"`
	DeliveryRate float64 `json:"delivery_rate"`
	// Self-healing activity: scripted connection kills, redials that
	// healed them, broken connections the clients observed.
	ConnKills   int `json:"conn_kills"`
	Redials     int `json:"redials"`
	BrokenConns int `json:"broken_conns"`
	// Session-level control-loop accounting summed over sessions.
	ConfigSwitches int `json:"config_switches"`
	Backoffs       int `json:"backoffs"`
	// FinalBitRateBps is the mean of the sessions' final tag bit rates
	// (0 when the daemon reports none, i.e. all robustness features off).
	FinalBitRateBps float64 `json:"final_bit_rate_bps"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// soak drives sessions*frames decode jobs through self-healing
// clients, severing each connection every killEvery frames.
func soak(addr string, sessions, frames, payloadBytes, killEvery int, seed int64, flight *obs.FlightRecorder) (*soakResult, error) {
	type sessionOutcome struct {
		delivered, failed, kills int
		health                   serve.ClientHealth
		stats                    *serve.SessionStats
		err                      error
	}
	outcomes := make([]sessionOutcome, sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &outcomes[s]
			c, err := serve.DialClient(serve.ClientConfig{
				Addr:       addr,
				IOTimeout:  10 * time.Second,
				MaxRedials: 6,
				RedialBase: 2 * time.Millisecond,
				RedialMax:  50 * time.Millisecond,
				JitterSeed: seed + int64(s),
				Flight:     flight,
			})
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			id := fmt.Sprintf("chaos-%03d", s)
			for i := 0; i < frames; i++ {
				if killEvery > 0 && i > 0 && i%killEvery == 0 {
					c.BreakConn()
					r.kills++
				}
				p := []byte(fmt.Sprintf("%s/%06d/", id, i))
				for len(p) < payloadBytes {
					p = append(p, byte(i))
				}
				resp, err := c.Decode(id, p[:payloadBytes])
				if err == nil && resp.Delivered {
					r.delivered++
				} else {
					r.failed++
				}
			}
			r.stats, r.err = c.Stats(id)
			r.health = c.Health()
		}(s)
	}
	wg.Wait()

	res := &soakResult{Offered: sessions * frames, WallSeconds: time.Since(start).Seconds()}
	var rateSum float64
	var rateN int
	for i := range outcomes {
		r := &outcomes[i]
		if r.err != nil {
			return nil, r.err
		}
		res.Delivered += r.delivered
		res.Failed += r.failed
		res.ConnKills += r.kills
		res.Redials += r.health.Redials
		res.BrokenConns += r.health.BrokenConns
		res.ConfigSwitches += r.stats.ConfigSwitches
		res.Backoffs += r.stats.Backoffs
		if r.stats.BitRateBps > 0 {
			rateSum += r.stats.BitRateBps
			rateN++
		}
	}
	if rateN > 0 {
		res.FinalBitRateBps = rateSum / float64(rateN)
	}
	if res.Offered > 0 {
		res.DeliveryRate = float64(res.Delivered) / float64(res.Offered)
	}
	return res, nil
}

// clusterParams carries the parsed flags into the cluster harness.
type clusterParams struct {
	nodes, sessions, frames, payloadBytes, killAt int
	seed                                          int64
	link                                          core.LinkConfig
	rho                                           float64
	retries, shards                               int
	timeline                                      string
	minSymRate                                    float64
	goroutinesStart                               int
	out, flightOut, traceOut                      string
}

// clusterChaos is the §5j acceptance harness: N identical handoff-
// enabled adaptive nodes behind consistent-hash routing, one
// uninterrupted control node, one hard kill mid-soak. The gates are
// absolute: every session heals onto a survivor, every session's
// response stream (and final stats) is byte-identical to the control
// node's, sequence numbers stay strictly gapless (zero lost or
// duplicated frames), and the flight recorder links each kill,
// re-route, and handoff install under one trace id.
func clusterChaos(p clusterParams) {
	tracer := obs.NewTracer(obs.TracerConfig{Seed: p.seed, SampleEvery: 1})
	flight := obs.NewFlightRecorder(16384)
	if p.flightOut != "" {
		flight.SetDumpPath(p.flightOut)
	}
	if p.killAt >= p.frames {
		log.Fatalf("kill-at %d is past the last frame %d", p.killAt, p.frames-1)
	}

	boot := func() *serve.Server {
		tl, err := fault.ParseTimeline(p.timeline)
		if err != nil {
			log.Fatalf("timeline: %v", err)
		}
		srv, err := serve.NewServer(serve.Config{
			Addr:                 "localhost:0",
			Link:                 p.link,
			CoherenceRho:         p.rho,
			MaxRetries:           p.retries,
			Shards:               p.shards,
			Timeline:             tl,
			Handoff:              true,
			Adapt:                true,
			AdaptMinSymbolRateHz: p.minSymRate,
			Obs:                  obs.NewRegistry(),
			Tracer:               tracer,
			Flight:               flight,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			log.Fatal(err)
		}
		return srv
	}
	control := boot()
	byAddr := map[string]*serve.Server{}
	addrs := make([]string, p.nodes)
	for i := range addrs {
		n := boot()
		addrs[i] = n.Addr()
		byAddr[n.Addr()] = n
	}
	template := serve.ClientConfig{
		Proto:      "binary",
		IOTimeout:  10 * time.Second,
		MaxRedials: 3,
		RedialBase: 2 * time.Millisecond,
		RedialMax:  20 * time.Millisecond,
	}
	sessionID := func(s int) string { return fmt.Sprintf("cluster-%03d", s) }

	// Routing is deterministic, so the victim — the node owning the
	// first session — and its session count are known before any frame
	// is served.
	probe, err := cluster.New(cluster.Config{Addrs: addrs, Client: template})
	if err != nil {
		log.Fatal(err)
	}
	victim, _ := probe.Owner(sessionID(0))
	victimSessions := 0
	for s := 0; s < p.sessions; s++ {
		if o, _ := probe.Owner(sessionID(s)); o == victim {
			victimSessions++
		}
	}
	probe.Close()
	log.Printf("control on %s; %d nodes %v; victim %s owns %d/%d sessions, dies at frame %d",
		control.Addr(), p.nodes, addrs, victim, victimSessions, p.sessions, p.killAt)

	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			log.Printf("killing %s", victim)
			byAddr[victim].Kill()
		})
	}

	type outcome struct {
		err           error
		delivered     int
		controlDel    int
		mismatch      string
		seqViolations int
		statsDiverged bool
	}
	outcomes := make([]outcome, p.sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < p.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &outcomes[s]
			id := sessionID(s)
			cc, err := serve.DialClient(serve.ClientConfig{
				Addr: control.Addr(), Proto: "binary", IOTimeout: 10 * time.Second,
			})
			if err != nil {
				r.err = err
				return
			}
			defer cc.Close()
			cl, err := cluster.New(cluster.Config{
				Addrs: addrs, Client: template, Flight: flight, TraceSeed: p.seed,
			})
			if err != nil {
				r.err = err
				return
			}
			defer cl.Close()
			for i := 0; i < p.frames; i++ {
				if i == p.killAt {
					kill()
				}
				pay := []byte(fmt.Sprintf("%s/%06d/", id, i))
				for len(pay) < p.payloadBytes {
					pay = append(pay, byte(i))
				}
				pay = pay[:p.payloadBytes]
				want, err := cc.Decode(id, pay)
				if err != nil {
					r.err = fmt.Errorf("control frame %d: %w", i, err)
					return
				}
				got, err := cl.Decode(id, pay)
				if err != nil {
					r.err = fmt.Errorf("cluster frame %d did not heal: %w", i, err)
					return
				}
				if want.Delivered {
					r.controlDel++
				}
				if got.Delivered {
					r.delivered++
				}
				if got.Seq != i+1 {
					r.seqViolations++
				}
				wb, _ := json.Marshal(want)
				gb, _ := json.Marshal(got)
				if r.mismatch == "" && string(wb) != string(gb) {
					r.mismatch = fmt.Sprintf("frame %d:\n  cluster %s\n  control %s", i, gb, wb)
				}
			}
			cstats, cerr := cc.Stats(id)
			gstats, gerr := cl.Stats(id)
			if cerr != nil || gerr != nil {
				r.err = errors.Join(cerr, gerr)
				return
			}
			r.statsDiverged = *cstats != *gstats
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	for addr, srv := range byAddr {
		if addr == victim {
			continue
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			log.Fatalf("node %s drain: %v", addr, err)
		}
	}
	if err := control.Shutdown(context.Background()); err != nil {
		log.Fatalf("control drain: %v", err)
	}
	goroutinesEnd := runtime.NumGoroutine()
	for wait := 0; goroutinesEnd > p.goroutinesStart && wait < 100; wait++ {
		time.Sleep(20 * time.Millisecond)
		goroutinesEnd = runtime.NumGoroutine()
	}

	var failures []string
	offered := p.sessions * p.frames
	delivered, controlDel, seqViolations := 0, 0, 0
	byteIdentical := true
	for s := range outcomes {
		r := &outcomes[s]
		if r.err != nil {
			failures = append(failures, fmt.Sprintf("session %s: %v", sessionID(s), r.err))
			continue
		}
		delivered += r.delivered
		controlDel += r.controlDel
		seqViolations += r.seqViolations
		if r.mismatch != "" {
			byteIdentical = false
			failures = append(failures, fmt.Sprintf("session %s diverged from control at %s", sessionID(s), r.mismatch))
		}
		if r.statsDiverged {
			failures = append(failures, fmt.Sprintf("session %s: final stats diverged from control", sessionID(s)))
		}
	}
	if seqViolations > 0 {
		failures = append(failures, fmt.Sprintf("%d sequence violations (lost or duplicated frames)", seqViolations))
	}
	if delivered < controlDel {
		failures = append(failures, fmt.Sprintf("cluster delivered %d < control %d", delivered, controlDel))
	}

	// Black-box gates: one node_down + one reroute + one handoff
	// install per victim-owned session (each session runs its own
	// cluster client, so each heals independently), and every reroute's
	// trace id must also appear on a handoff_install — that shared id
	// is what strings kill -> re-route -> handoff into one story.
	nodeDowns := flight.Count(obs.FlightNodeDown)
	reroutes := flight.Count(obs.FlightReroute)
	installs := 0 // client-side installs: only they carry the episode trace
	rerouteTraces := map[uint64]bool{}
	installTraces := map[uint64]bool{}
	for _, ev := range flight.Events() {
		switch ev.Kind {
		case obs.FlightReroute:
			if ev.Trace == 0 {
				failures = append(failures, fmt.Sprintf("reroute event without trace id: %+v", ev))
			}
			rerouteTraces[ev.Trace] = true
		case obs.FlightHandoffInstall:
			if ev.Trace != 0 {
				installs++
				installTraces[ev.Trace] = true
			}
		}
	}
	if nodeDowns != victimSessions {
		failures = append(failures, fmt.Sprintf("node_down events = %d, want %d (one per victim session client)", nodeDowns, victimSessions))
	}
	if reroutes != victimSessions {
		failures = append(failures, fmt.Sprintf("reroute events = %d, want %d", reroutes, victimSessions))
	}
	if installs != victimSessions {
		failures = append(failures, fmt.Sprintf("client handoff_install events = %d, want %d", installs, victimSessions))
	}
	for tr := range rerouteTraces {
		if !installTraces[tr] {
			failures = append(failures, fmt.Sprintf("reroute trace %x has no linked handoff_install", tr))
		}
	}
	if goroutinesEnd > p.goroutinesStart {
		failures = append(failures, fmt.Sprintf("goroutine leak: %d before, %d after shutdown", p.goroutinesStart, goroutinesEnd))
	}

	traces, spans, droppedSpans := tracer.Stats()
	sum := map[string]any{
		"nodes":              p.nodes,
		"sessions":           p.sessions,
		"frames_per_session": p.frames,
		"kill_at_frame":      p.killAt,
		"victim":             victim,
		"victim_sessions":    victimSessions,
		"offered_frames":     offered,
		"delivered_frames":   delivered,
		"control_delivered":  controlDel,
		"delivery_rate":      float64(delivered) / float64(offered),
		"byte_identical":     byteIdentical,
		"seq_violations":     seqViolations,
		"node_down_events":   nodeDowns,
		"reroute_events":     reroutes,
		"handoff_installs":   installs,
		"goroutines_start":   p.goroutinesStart,
		"goroutines_end":     goroutinesEnd,
		"wall_seconds":       wall,
		"traces":             traces,
		"trace_spans":        spans,
		"trace_spans_drop":   droppedSpans,
		"pass":               len(failures) == 0,
	}

	if p.flightOut != "" {
		if err := flight.DumpFile(p.flightOut); err != nil {
			log.Fatalf("flight-out: %v", err)
		}
		log.Printf("wrote flight dump %s (%d events)", p.flightOut, len(flight.Events()))
	}
	if p.traceOut != "" {
		f, err := os.Create(p.traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		log.Printf("wrote %s (%d traces, %d spans)", p.traceOut, traces, spans)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if p.out != "" {
		if err := benchio.Merge(p.out, "cluster_chaos", sum); err != nil {
			log.Fatalf("out: %v", err)
		}
		log.Printf("merged cluster_chaos entry into %s", p.out)
	}
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Printf("pass: %d sessions x %d frames across %d nodes, %d healed off %s, streams byte-identical to control",
		p.sessions, p.frames, p.nodes, victimSessions, victim)
}
