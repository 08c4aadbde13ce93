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
// fixed template (QPSK 1/2 @ 1 Msym/s) delivers ~28% while the
// controller converges to BPSK 1/2 @ 0.5 Msym/s and delivers ~55%
// (24-seed means at 16 sessions × 120 frames). The flag defaults are
// that gate: 16 × 120 with -min-ratio 1.7 -floor 0.43, about three
// standard deviations below those means (a few sessions give a wide
// spread, so smaller runs are smoke tests, not gates).
//
// With -out it merges a "chaos" entry into a benchmark results file
// (e.g. BENCH_results.json), preserving other sections. A failed
// assertion exits non-zero, so CI can gate on it directly. Every mode
// is a program of the scenario engine (internal/scenario), whose
// serving invariants are gates too.
//
// Example:
//
//	backfi-chaos -out BENCH_results.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/cluster"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/scenario"
	"backfi/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-chaos: ")

	distance := flag.Float64("distance", 6, "AP-tag distance in meters (the default regime is calibrated at 6 m)")
	timeline := flag.String("timeline", "0:0,5:0.1", "scripted fault timeline frame:severity[,frame:severity...]")
	sessions := flag.Int("sessions", 16, "concurrent sessions per daemon (one self-healing connection each; default 4 with -energy or -cluster)")
	frames := flag.Int("frames", 120, "frames offered per session (default 60 with -energy or -cluster)")
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
	clusterN := flag.Int("cluster", 0, "run the cluster chaos harness instead: boot N handoff-enabled nodes plus a single-node control, hard-kill one node mid-soak, and assert every session heals onto a survivor with a byte-identical stream (0 disables; needs >= 2; with -energy the nodes are energy-gated at the last -energy-severities value under the -wild-timeline script)")
	energyMode := flag.Bool("energy", false, "run the energy soak instead: sweep -energy-severities on an energy-aware daemon under the -wild-timeline mobility script, asserting gap-free wake resume, the delivery floor at the baseline severity, and dark→wake cycling at the starved one (DESIGN.md §5k; -distance defaults to 1 m in this mode)")
	energySevs := flag.String("energy-severities", "0,0.9,1", "energy mode: comma-separated harvest severities in [0,1], swept in order — the first is the baseline -floor applies to, the last must cycle dark")
	wildTimeline := flag.String("wild-timeline", "0:0,5:0.4", "energy mode: mobility fault timeline frame:severity[,frame:severity...] parsed with Wild severities (the tag picks up speed and moderate RF impairments)")
	killAt := flag.Int("kill-at", 0, "cluster mode: hard-kill the victim node when the first session reaches this frame (0 = frames/3)")
	minRatio := flag.Float64("min-ratio", 1.7, "assert adaptive delivery ≥ this multiple of fixed delivery (0 disables)")
	floor := flag.Float64("floor", 0.43, "assert adaptive delivery rate ≥ this absolute floor (0 disables; default 0.45 with -energy, where it bounds the baseline severity's delivery)")
	out := flag.String("out", "", "merge the run's summary under a \"chaos\" key in this JSON file")
	flightOut := flag.String("flight-out", "", "write the flight recorder's event dump to this JSON file (also armed for anomaly auto-dump)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON of the run to this file")
	flag.Parse()

	// The flag defaults are the adaptive-vs-fixed gate's calibrated
	// regime. The energy and cluster modes keep their own defaults for
	// the flags the command line leaves unset: 4 sessions × 60 frames,
	// and for the energy soak the paper's 1 m headline point and its
	// 0.45 baseline floor.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *energyMode || *clusterN > 0 {
		if !set["sessions"] {
			*sessions = 4
		}
		if !set["frames"] {
			*frames = 60
		}
	}
	if *energyMode {
		if !set["distance"] {
			*distance = 1
		}
		if !set["floor"] {
			*floor = 0.45
		}
	}

	r := &harness{
		Harness: scenario.NewHarness(), link: core.DefaultLinkConfig(*distance),
		rho: *rho, retries: *retries, shards: *shards,
		sessions: *sessions, frames: *frames, payload: *payload, seed: *seed,
		minSymRate: *minSymRate, out: *out, flightOut: *flightOut, traceOut: *traceOut,
	}
	r.link.Seed = *seed
	var sevs []float64
	if *energyMode {
		var err error
		if sevs, err = parseSeverities(*energySevs); err != nil {
			log.Fatalf("energy-severities: %v", err)
		}
	}

	switch {
	case *clusterN > 0:
		if *clusterN < 2 {
			log.Fatalf("cluster mode needs at least 2 nodes, got %d", *clusterN)
		}
		at := *killAt
		if at <= 0 {
			at = *frames / 3
		}
		if *energyMode {
			r.clusterChaos(*clusterN, at, true, sevs[len(sevs)-1], *wildTimeline)
		} else {
			r.clusterChaos(*clusterN, at, false, 0, *timeline)
		}
	case *energyMode:
		r.energySoak(sevs, *wildTimeline, *floor)
	default:
		r.adaptiveVsFixed(*timeline, *distance, *killEvery, *minRatio, *floor,
			*wdAfter, *wdResidual, *wdRecover)
	}
}

// harness is the scenario harness plus the flags every mode shares.
type harness struct {
	*scenario.Harness
	link                      core.LinkConfig
	rho                       float64
	retries, shards           int
	sessions, frames, payload int
	seed                      int64
	minSymRate                float64
	out, flightOut, traceOut  string
}

// daemon boots one daemon on the shared template with its own metrics
// registry; tweak adjusts the mode's features before the boot.
func (r *harness) daemon(tl *fault.Timeline, tracer *obs.Tracer, flight *obs.FlightRecorder, tweak func(*serve.Config)) *serve.Server {
	cfg := serve.Config{
		Link:         r.link,
		CoherenceRho: r.rho,
		MaxRetries:   r.retries,
		Shards:       r.shards,
		Timeline:     tl,
		Obs:          obs.NewRegistry(),
		Tracer:       tracer,
		Flight:       flight,
	}
	tweak(&cfg)
	srv, err := r.Boot(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return srv
}

// finish drains every daemon (a goroutine leak fails the run), writes
// the flight dump and the trace when asked, reports the summary under
// key, and exits non-zero on any failure.
func (r *harness) finish(key string, sum map[string]any, failures []string, tracer *obs.Tracer, flight *obs.FlightRecorder, pass string) {
	end, err := r.Drain()
	if err != nil {
		failures = append(failures, err.Error())
	}
	sum["goroutines_start"], sum["goroutines_end"] = r.Start, end
	sum["pass"] = len(failures) == 0
	if r.flightOut != "" {
		if err := flight.DumpFile(r.flightOut); err != nil {
			log.Fatalf("flight-out: %v", err)
		}
		log.Printf("wrote flight dump %s (%d events)", r.flightOut, len(flight.Events()))
	}
	if r.traceOut != "" && tracer != nil {
		f, err := os.Create(r.traceOut)
		if err == nil {
			err = errors.Join(tracer.WriteChromeTrace(f), f.Close())
		}
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		traces, spans, _ := tracer.Stats()
		log.Printf("wrote %s (%d traces, %d spans)", r.traceOut, traces, spans)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if r.out != "" {
		if err := benchio.Merge(r.out, key, sum); err != nil {
			log.Fatalf("out: %v", err)
		}
		log.Printf("merged %s entry into %s", key, r.out)
	}
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Print(pass)
}

// violations lists a run's invariant violations as gate failures.
func violations(res *scenario.Result, prefix string) []string {
	var out []string
	for _, v := range res.Violations {
		out = append(out, prefix+v.Error())
	}
	return out
}

// adaptiveVsFixed is the default mode: one fixed-rate and one adaptive
// daemon (rate controller and SIC watchdog on) from the same template
// under the same scripted faults, each soaked by self-healing clients
// whose connections are severed every killEvery frames.
func (r *harness) adaptiveVsFixed(tlSpec string, distance float64, killEvery int, minRatio, floor float64, wdAfter int, wdResidual float64, wdRecover int) {
	// One tracer and one flight recorder span the whole run — both
	// daemons and every client — so a watchdog trip on the adaptive
	// daemon lands next to the connection kills that bracketed it, each
	// carrying the trace id of the frame that tripped it. Every frame is
	// traced (SampleEvery 1): chaos runs are short and the point is a
	// complete black-box record, not a sampled one.
	tracer := obs.NewTracer(obs.TracerConfig{Seed: r.seed, SampleEvery: 1})
	flight := obs.NewFlightRecorder(0)
	if r.flightOut != "" {
		flight.SetDumpPath(r.flightOut)
	}
	tl, err := fault.ParseTimeline(tlSpec)
	if err != nil {
		log.Fatalf("timeline: %v", err)
	}
	fixedSrv := r.daemon(tl, tracer, flight, func(*serve.Config) {})
	adaptSrv := r.daemon(tl, tracer, flight, func(cfg *serve.Config) {
		cfg.Adapt = true
		cfg.AdaptMinSymbolRateHz = r.minSymRate
		cfg.WatchdogAfter = wdAfter
		cfg.WatchdogResidualDBm = wdResidual
		cfg.WatchdogRecover = wdRecover
	})
	log.Printf("fixed daemon on %s, adaptive daemon on %s (distance=%.3gm timeline=%q)",
		fixedSrv.Addr(), adaptSrv.Addr(), distance, tlSpec)

	var fails []string
	prog := scenario.Closed("chaos", r.sessions, r.frames, killEvery, 0)
	soak := func(name, addr string) *soakResult {
		res, err := scenario.Run(scenario.Config{
			Program:      prog,
			PayloadBytes: r.payload,
			Dial: func(s int) (scenario.Target, error) {
				return serve.DialClient(serve.ClientConfig{
					Addr:       addr,
					IOTimeout:  10 * time.Second,
					MaxRedials: 6,
					RedialBase: 2 * time.Millisecond,
					RedialMax:  50 * time.Millisecond,
					JitterSeed: r.seed + int64(s),
					Flight:     flight,
				})
			},
		})
		if res == nil {
			log.Fatalf("%s daemon: %v", name, err)
		}
		fails = append(fails, violations(res, name+" daemon: ")...)
		for s, o := range res.Clients {
			if o.Stats == nil {
				fails = append(fails, fmt.Sprintf("%s daemon: session %s's final stats probe failed", name, prog[s].ID))
			}
		}
		return newSoakResult(res)
	}
	fixed := soak("fixed", fixedSrv.Addr())
	adaptive := soak("adaptive", adaptSrv.Addr())

	ratio := 0.0
	if fixed.DeliveryRate > 0 {
		ratio = adaptive.DeliveryRate / fixed.DeliveryRate
	} else if adaptive.DeliveryRate > 0 {
		ratio = adaptive.DeliveryRate / (1.0 / float64(adaptive.Offered)) // lower bound: fixed delivered < 1 frame
	}

	if minRatio > 0 && ratio < minRatio {
		fails = append(fails, fmt.Sprintf("adaptive/fixed delivery ratio %.2f below required %.2f (adaptive %.3f, fixed %.3f)",
			ratio, minRatio, adaptive.DeliveryRate, fixed.DeliveryRate))
	}
	if floor > 0 && adaptive.DeliveryRate < floor {
		fails = append(fails, fmt.Sprintf("adaptive delivery rate %.3f below floor %.3f", adaptive.DeliveryRate, floor))
	}
	if killEvery > 0 && adaptive.Redials < adaptive.ConnKills {
		fails = append(fails, fmt.Sprintf("adaptive clients healed %d of %d connection kills", adaptive.Redials, adaptive.ConnKills))
	}
	// Satellite assertions on the black-box record itself: every scripted
	// connection kill must leave a conn_broken event AND a healing redial
	// event, and the adaptive daemon's watchdog trip must carry the trace
	// id of the frame that tripped it (the flight recorder and tracer are
	// cross-linked, not independent logs).
	totalKills := fixed.ConnKills + adaptive.ConnKills
	if killEvery > 0 {
		if n := flight.Count(obs.FlightConnBroken); n < totalKills {
			fails = append(fails, fmt.Sprintf("flight recorder saw %d conn_broken events for %d connection kills", n, totalKills))
		}
		if n := flight.Count(obs.FlightRedial); n < totalKills {
			fails = append(fails, fmt.Sprintf("flight recorder saw %d redial events for %d connection kills", n, totalKills))
		}
	}
	if wdAfter > 0 {
		trippedWithTrace := false
		for _, ev := range flight.Events() {
			if ev.Kind == obs.FlightWatchdogTrip && ev.Trace != 0 {
				trippedWithTrace = true
				break
			}
		}
		if !trippedWithTrace {
			fails = append(fails, "no watchdog_trip flight event with a linked trace id (did the interference regime change?)")
		}
	}

	traces, spans, droppedSpans := tracer.Stats()
	sum := map[string]any{
		"distance_m":         distance,
		"timeline":           tlSpec,
		"sessions":           r.sessions,
		"frames_per_session": r.frames,
		"retries":            r.retries,
		"rho":                r.rho,
		"kill_every":         killEvery,
		"fixed":              fixed,
		"adaptive":           adaptive,
		"adaptive_vs_fixed":  ratio,
		"min_ratio":          minRatio,
		"floor":              floor,
		"flight_events":      len(flight.Events()),
		"watchdog_trips":     flight.Count(obs.FlightWatchdogTrip),
		"redial_events":      flight.Count(obs.FlightRedial),
		"conn_broken_events": flight.Count(obs.FlightConnBroken),
		"traces":             traces,
		"trace_spans":        spans,
		"trace_spans_drop":   droppedSpans,
	}
	r.finish("chaos", sum, fails, tracer, flight,
		fmt.Sprintf("pass: adaptive %.3f vs fixed %.3f (%.2fx), %d conn kills healed by %d redials",
			adaptive.DeliveryRate, fixed.DeliveryRate, ratio, adaptive.ConnKills, adaptive.Redials))
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

func newSoakResult(res *scenario.Result) *soakResult {
	t := res.Total()
	out := &soakResult{
		Offered: t.Offered, Delivered: t.Delivered, Failed: t.Offered - t.Delivered,
		DeliveryRate: scenario.Rate(t.Delivered, t.Offered),
		ConnKills:    t.Kills, Redials: t.Health.Redials, BrokenConns: t.Health.BrokenConns,
		WallSeconds: res.Wall.Seconds(),
	}
	var rateSum float64
	var rateN int
	for _, o := range res.Clients {
		if st := o.Stats; st != nil { // a failed probe is a gate failure
			out.ConfigSwitches += st.ConfigSwitches
			out.Backoffs += st.Backoffs
			if st.BitRateBps > 0 {
				rateSum += st.BitRateBps
				rateN++
			}
		}
	}
	if rateN > 0 {
		out.FinalBitRateBps = rateSum / float64(rateN)
	}
	return out
}

// clusterChaos is the §5j acceptance harness: N identical handoff-
// enabled adaptive nodes behind consistent-hash routing, one
// uninterrupted control node, one hard kill mid-soak. The gates are
// absolute: every session heals onto a survivor, every session's
// response stream (and final stats) is byte-identical to the control
// node's, sequence numbers stay strictly gapless (zero lost or
// duplicated frames), and the flight recorder links each kill,
// re-route, and handoff install under one trace id. With energy the
// nodes are also energy-gated (DESIGN.md §5k) at the harvest severity
// under a mobility script (tlSpec parsed with Wild severities): each
// frame is polled through its dark answers, every dark answer is
// compared too, and the heal may land in the middle of a dark streak.
func (r *harness) clusterChaos(nodes, killAt int, energy bool, severity float64, tlSpec string) {
	tracer := obs.NewTracer(obs.TracerConfig{Seed: r.seed, SampleEvery: 1})
	flight := obs.NewFlightRecorder(16384)
	if r.flightOut != "" {
		flight.SetDumpPath(r.flightOut)
	}
	if killAt >= r.frames {
		log.Fatalf("kill-at %d is past the last frame %d", killAt, r.frames-1)
	}
	parse := fault.ParseTimeline
	if energy {
		parse = fault.ParseWildTimeline
	}
	tl, err := parse(tlSpec)
	if err != nil {
		log.Fatalf("timeline: %v", err)
	}
	node := func() *serve.Server {
		return r.daemon(tl, tracer, flight, func(cfg *serve.Config) {
			cfg.Handoff = true
			cfg.Adapt = true
			cfg.AdaptMinSymbolRateHz = r.minSymRate
			cfg.Energy = energy
			cfg.EnergySeverity = severity
		})
	}
	control := node()
	byAddr := map[string]*serve.Server{}
	addrs := make([]string, nodes)
	for i := range addrs {
		n := node()
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
	prog := scenario.Closed("cluster", r.sessions, r.frames, 0, 0)

	// Routing is deterministic, so the victim — the node owning the
	// first session — and its session count are known before any frame
	// is served.
	probe, err := cluster.New(cluster.Config{Addrs: addrs, Client: template})
	if err != nil {
		log.Fatal(err)
	}
	victim, _ := probe.Owner(prog[0].ID)
	victimSessions := 0
	for _, s := range prog {
		if o, _ := probe.Owner(s.ID); o == victim {
			victimSessions++
		}
	}
	probe.Close()
	log.Printf("control on %s; %d nodes %v; victim %s owns %d/%d sessions, dies at frame %d",
		control.Addr(), nodes, addrs, victim, victimSessions, r.sessions, killAt)

	var killOnce sync.Once
	res, err := scenario.Run(scenario.Config{
		Program:      prog,
		PayloadBytes: r.payload,
		DarkRetries:  400,
		Dial: func(int) (scenario.Target, error) {
			return cluster.New(cluster.Config{Addrs: addrs, Client: template, Flight: flight, TraceSeed: r.seed})
		},
		Control: func(int) (scenario.Target, error) {
			return serve.DialClient(serve.ClientConfig{Addr: control.Addr(), Proto: "binary", IOTimeout: 10 * time.Second})
		},
		BeforeOp: func(op scenario.Op) {
			if op.Kind == scenario.Decode && op.Frame == killAt {
				killOnce.Do(func() {
					log.Printf("killing %s", victim)
					byAddr[victim].Kill()
				})
			}
		},
	})
	if res == nil {
		log.Fatal(err)
	}
	fails := violations(res, "")
	t := res.Total()
	if n := t.Failed + t.Rejected; n > 0 {
		fails = append(fails, fmt.Sprintf("%d ops failed (a frame did not heal or its tag never woke in 400 polls)", n))
	}
	if t.Delivered < t.ControlDelivered {
		fails = append(fails, fmt.Sprintf("cluster delivered %d < control %d", t.Delivered, t.ControlDelivered))
	}
	if energy && t.DarkPolls == 0 {
		fails = append(fails, fmt.Sprintf("energy severity %.2g answered no dark polls — the run did not exercise the energy path", severity))
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
				fails = append(fails, fmt.Sprintf("reroute event without trace id: %+v", ev))
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
		fails = append(fails, fmt.Sprintf("node_down events = %d, want %d (one per victim session client)", nodeDowns, victimSessions))
	}
	if reroutes != victimSessions {
		fails = append(fails, fmt.Sprintf("reroute events = %d, want %d", reroutes, victimSessions))
	}
	if installs != victimSessions {
		fails = append(fails, fmt.Sprintf("client handoff_install events = %d, want %d", installs, victimSessions))
	}
	for tr := range rerouteTraces {
		if !installTraces[tr] {
			fails = append(fails, fmt.Sprintf("reroute trace %x has no linked handoff_install", tr))
		}
	}

	traces, spans, droppedSpans := tracer.Stats()
	sum := map[string]any{
		"nodes":              nodes,
		"sessions":           r.sessions,
		"frames_per_session": r.frames,
		"kill_at_frame":      killAt,
		"victim":             victim,
		"victim_sessions":    victimSessions,
		"offered_frames":     t.Offered,
		"delivered_frames":   t.Delivered,
		"control_delivered":  t.ControlDelivered,
		"delivery_rate":      scenario.Rate(t.Delivered, t.Offered),
		"byte_identical":     res.Count(scenario.Mismatch) == 0,
		"seq_violations":     res.Count(scenario.SeqGap),
		"energy":             energy,
		"energy_severity":    severity,
		"dark_polls":         t.DarkPolls,
		"node_down_events":   nodeDowns,
		"reroute_events":     reroutes,
		"handoff_installs":   installs,
		"wall_seconds":       res.Wall.Seconds(),
		"traces":             traces,
		"trace_spans":        spans,
		"trace_spans_drop":   droppedSpans,
	}
	r.finish("cluster_chaos", sum, fails, tracer, flight,
		fmt.Sprintf("pass: %d sessions x %d frames across %d nodes, %d healed off %s, streams byte-identical to control",
			r.sessions, r.frames, nodes, victimSessions, victim))
}
