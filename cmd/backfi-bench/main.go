// Command backfi-bench regenerates the tables and figures of the
// BackFi paper's evaluation (Sec. 6) and prints them in the paper's
// layout. Use -fig to select one, or run everything.
//
// Example:
//
//	backfi-bench -fig 8 -trials 10
//	backfi-bench -all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/experiments"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("backfi-bench: ")

	fig := flag.String("fig", "", "figure to regenerate: 7, 8, 9, 10, 11a, 11b, 12a, 12b, 13, headline, ablation, excitation, mimo, robustness, wild (empty = all)")
	trials := flag.Int("trials", 5, "Monte-Carlo trials per point")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "evaluation concurrency: 0 = all CPUs, 1 = sequential (results are identical for every value)")
	impair := flag.Float64("impair", 0, "RF impairment severity in [0,1]: 0 = the paper's ideal front end, >0 runs every figure under fault.Standard(severity) (DESIGN.md §5d)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	benchOut := flag.String("benchout", "", "write per-figure headline metrics + wall-clock seconds to this JSON file (e.g. BENCH_results.json)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus text on ADDR/metrics and pprof on ADDR/debug/pprof/ while running (e.g. localhost:9090)")
	manifestOut := flag.String("manifest", "", "write a per-run manifest (config, seed, build info, per-figure wall clock + headline metric, final metric snapshot) to this JSON file")
	micro := flag.Int("micro", 0, "instead of figures, time the single-tag link pipeline this many times and merge the spread under micro.RunPacket in -benchout")
	flag.Parse()

	if *micro > 0 {
		if err := runMicro(*micro, *benchOut); err != nil {
			log.Fatalf("micro: %v", err)
		}
		return
	}

	opt := experiments.Options{Trials: *trials, Seed: *seed, Workers: *workers}
	if *impair < 0 || *impair > 1 {
		log.Fatalf("impair: severity %v outside [0,1]", *impair)
	}
	if *impair > 0 {
		p := fault.Standard(*impair)
		if err := p.Validate(); err != nil {
			log.Fatalf("impair: %v", err)
		}
		opt.Faults = &p
	}
	figs := []string{"7", "8", "9", "10", "11a", "11b", "12a", "12b", "13", "headline", "ablation", "excitation", "mimo", "robustness", "wild"}
	if *fig != "" {
		figs = []string{*fig}
	}

	// Instrumentation is opt-in: with neither flag the registry stays
	// nil and every probe in the pipeline is a no-op.
	var reg *obs.Registry
	if *metricsAddr != "" || *manifestOut != "" {
		reg = obs.NewRegistry()
		opt.Obs = reg
		parallel.SetRegistry(reg)
	}
	if *metricsAddr != "" {
		_, bound, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			log.Fatalf("metrics-addr: %v", err)
		}
		log.Printf("metrics: http://%s/metrics  pprof: http://%s/debug/pprof/", bound, bound)
	}
	var man *obs.Manifest
	if *manifestOut != "" {
		man = obs.NewManifest("backfi-bench", map[string]any{
			"figs":    figs,
			"trials":  *trials,
			"seed":    *seed,
			"workers": parallel.Normalize(*workers),
			"impair":  *impair,
		})
	}
	finishManifest := func() {
		if man == nil {
			return
		}
		man.Finish(reg)
		if err := man.WriteFile(*manifestOut); err != nil {
			log.Fatalf("manifest: %v", err)
		}
		log.Printf("wrote %s", *manifestOut)
	}

	bench := map[string]benchEntry{}
	if *jsonOut {
		report := map[string]any{}
		for _, f := range figs {
			start := time.Now()
			data, err := runData(f, opt)
			if err != nil {
				log.Fatalf("fig %s: %v", f, err)
			}
			report["fig"+f] = data
			recordBench(bench, man, f, data, time.Since(start))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
		writeBench(*benchOut, bench)
		finishManifest()
		return
	}
	total := time.Duration(0)
	for _, f := range figs {
		start := time.Now()
		data, err := runData(f, opt)
		if err != nil {
			log.Fatalf("fig %s: %v", f, err)
		}
		elapsed := time.Since(start)
		total += elapsed
		recordBench(bench, man, f, data, elapsed)
		fmt.Printf("=== Figure %s (%.1fs) ===\n%s\n", f, elapsed.Seconds(), render(f, data))
	}
	fmt.Printf("total wall clock: %.1fs (workers=%d)\n", total.Seconds(), parallel.Normalize(opt.Workers))
	writeBench(*benchOut, bench)
	finishManifest()
}

// benchEntry is one figure's machine-readable summary.
type benchEntry struct {
	// Metric names the figure's headline number; Value is that number.
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// WallSeconds is the figure's end-to-end generation time.
	WallSeconds float64 `json:"wall_seconds"`
}

// recordBench reduces one figure's typed rows to its headline metric,
// mirroring the entry into the run manifest's phase list when one is
// being kept.
func recordBench(bench map[string]benchEntry, man *obs.Manifest, fig string, data any, elapsed time.Duration) {
	metric, value := headlineMetric(fig, data)
	bench["fig"+fig] = benchEntry{Metric: metric, Value: value, WallSeconds: elapsed.Seconds()}
	if man != nil {
		man.AddPhase("fig"+fig, elapsed.Seconds(), metric, value)
	}
}

// headlineMetric extracts the single number a figure argues for — the
// same quantities bench_test.go reports via b.ReportMetric.
func headlineMetric(fig string, data any) (string, float64) {
	switch fig {
	case "8":
		for _, r := range data.([]experiments.Fig8Row) {
			if r.DistanceM == 1 {
				return "Mbps@1m(32µs)", r.Best32Bps / 1e6
			}
		}
	case "9":
		curves := data.([]experiments.Fig9Curve)
		if len(curves) > 0 {
			return "cutoff-Mbps@0.5m", curves[0].MaxThroughputBps() / 1e6
		}
	case "10":
		for _, r := range data.([]experiments.Fig10Row) {
			if r.TargetBps == 1.25e6 && r.DistanceM == 2 {
				return "REPB@1.25Mbps,2m", r.REPB
			}
		}
	case "11a":
		return "median-degradation-dB", data.(*experiments.Fig11aResult).MedianDegradationDB
	case "11b":
		var hi, lo float64
		for _, r := range data.([]experiments.Fig11bRow) {
			if r.Mod.String() != "BPSK" {
				continue
			}
			if r.SymbolRateHz == 2.5e6 {
				hi = r.MeanSNRdB
			}
			if r.SymbolRateHz == 100e3 {
				lo = r.MeanSNRdB
			}
		}
		return "MRC-gain-dB(BPSK)", lo - hi
	case "12a":
		return "median-%-of-optimal", data.(*experiments.Fig12aResult).FractionOfOptimal() * 100
	case "13":
		for _, r := range data.([]experiments.Fig13Row) {
			if r.WiFiMbps == 54 {
				return "SNR-degradation-dB@54Mbps", r.Result.SNRDegradationDB()
			}
		}
	case "headline":
		return "speedup-x@1m", data.(*experiments.HeadlineResult).SpeedupAt1m()
	case "ablation":
		rows := data.([]experiments.AblationRow)
		if len(rows) >= 2 {
			return "analog-stage-SNR-dB", rows[0].MeanSNRdB - rows[1].MeanSNRdB
		}
	case "excitation":
		for _, r := range data.([]experiments.ExcitationRow) {
			if r.Excitation == "wifi" {
				return "wifi-success-rate", r.SuccessRate
			}
		}
	case "mimo":
		rows := data.([]experiments.MIMORow)
		var one, four float64
		for _, r := range rows {
			if r.DistanceM == 7 && r.Antennas == 1 {
				one = r.MeanJointSNRdB
			}
			if r.DistanceM == 7 && r.Antennas == 4 {
				four = r.MeanJointSNRdB
			}
		}
		return "4rx-gain-dB@7m", four - one
	case "robustness":
		// Success at full severity for the paper's QPSK operating point:
		// how much link survives the worst modeled front end.
		for _, r := range data.([]experiments.RobustnessRow) {
			if r.Severity == 1 && r.Mod.String() == "QPSK" {
				return "QPSK-success@sev1", r.SuccessRate
			}
		}
	case "wild":
		// Delivery at the harshest cell — brisk walking on a starved
		// harvest: how much of the stream survives the full "in the
		// wild" regime once dark episodes are ridden out.
		for _, r := range data.([]experiments.WildRow) {
			if r.MobilitySeverity == 1 && r.HarvestSeverity == 1 {
				return "delivery@wild-max", r.DeliveryRate
			}
		}
	}
	// fig7 is the energy model's table, and fig12b's drop at these trial
	// counts is a lost packet or two (EXPERIMENTS.md gives its measured
	// bound), so neither has a headline.
	return "n/a", 0
}

// writeBench merges the per-figure summaries under "figures" if a
// path was given.
func writeBench(path string, bench map[string]benchEntry) {
	if path == "" {
		return
	}
	if err := benchio.Merge(path, "figures", bench); err != nil {
		log.Fatalf("benchout: %v", err)
	}
	log.Printf("wrote %s", path)
}

// runData returns the typed rows of one figure for JSON output.
func runData(fig string, opt experiments.Options) (any, error) {
	switch fig {
	case "7":
		return experiments.Fig7()
	case "8":
		return experiments.Fig8(opt)
	case "9":
		return experiments.Fig9(opt)
	case "10":
		return experiments.Fig10(opt)
	case "11a":
		return experiments.Fig11a(30, opt.Trials, opt)
	case "11b":
		return experiments.Fig11b(opt)
	case "12a":
		return experiments.Fig12a(20, opt)
	case "12b":
		return experiments.Fig12b(5, opt)
	case "13":
		return experiments.Fig13(opt)
	case "headline":
		return experiments.Headline(opt)
	case "ablation":
		return experiments.Ablations(opt)
	case "excitation":
		return experiments.ExcitationComparison(opt)
	case "mimo":
		return experiments.MIMOExtension(opt)
	case "robustness":
		return experiments.Robustness(opt)
	case "wild":
		return experiments.Wild(opt)
	}
	return nil, fmt.Errorf("unknown figure %q", fig)
}

// render formats one figure's typed rows in the paper's table layout.
func render(fig string, data any) string {
	switch fig {
	case "7":
		return experiments.RenderFig7(data.([]experiments.Fig7Row))
	case "8":
		return experiments.RenderFig8(data.([]experiments.Fig8Row))
	case "9":
		return experiments.RenderFig9(data.([]experiments.Fig9Curve))
	case "10":
		return experiments.RenderFig10(data.([]experiments.Fig10Row))
	case "11a":
		return experiments.RenderFig11a(data.(*experiments.Fig11aResult))
	case "11b":
		return experiments.RenderFig11b(data.([]experiments.Fig11bRow))
	case "12a":
		return experiments.RenderFig12a(data.(*experiments.Fig12aResult))
	case "12b":
		return experiments.RenderFig12b(data.([]experiments.Fig12bRow))
	case "13":
		return experiments.RenderFig13(data.([]experiments.Fig13Row))
	case "headline":
		return experiments.RenderHeadline(data.(*experiments.HeadlineResult))
	case "ablation":
		return experiments.RenderAblations(data.([]experiments.AblationRow))
	case "excitation":
		return experiments.RenderExcitation(data.([]experiments.ExcitationRow))
	case "mimo":
		return experiments.RenderMIMO(data.([]experiments.MIMORow))
	case "robustness":
		return experiments.RenderRobustness(data.([]experiments.RobustnessRow))
	case "wild":
		return experiments.RenderWild(data.([]experiments.WildRow))
	}
	return ""
}
