package backfi

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (Sec. 6). Each iteration regenerates the figure at
// quick fidelity and reports its headline number as a custom metric, so
// `go test -bench=. -benchmem` both times the harness and prints the
// reproduced results.

import (
	"testing"

	"backfi/internal/experiments"
)

// BenchmarkFig7REPBTable regenerates the REPB/throughput table
// (paper Fig. 7) from the fitted energy model.
func BenchmarkFig7REPBTable(b *testing.B) {
	var maxRelErr float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		maxRelErr = 0
		for _, row := range rows {
			for _, c := range row.Cells {
				rel := (c.ModelREPB - c.PublishedREPB) / c.PublishedREPB
				if rel < 0 {
					rel = -rel
				}
				if rel > maxRelErr {
					maxRelErr = rel
				}
			}
		}
	}
	b.ReportMetric(maxRelErr*100, "max-err-%")
}

// BenchmarkFig8ThroughputVsRange regenerates throughput vs range for
// 32 µs and 96 µs tag preambles (paper Fig. 8).
func BenchmarkFig8ThroughputVsRange(b *testing.B) {
	var at1m, at5m float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.DistanceM {
			case 1:
				at1m = r.Best32Bps
			case 5:
				at5m = r.Best32Bps
			}
		}
	}
	b.ReportMetric(at1m/1e6, "Mbps@1m")
	b.ReportMetric(at5m/1e6, "Mbps@5m")
}

// BenchmarkFig8Sequential is BenchmarkFig8ThroughputVsRange pinned to
// Workers=1, the historical sequential engine. Comparing the two wall
// clocks shows the parallel engine's speedup on multi-core hosts; the
// reported metrics are identical by construction (every trial seeds
// from its index and results reduce in index order).
func BenchmarkFig8Sequential(b *testing.B) {
	opt := experiments.QuickOptions()
	opt.Workers = 1
	var at1m float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.DistanceM == 1 {
				at1m = r.Best32Bps
			}
		}
	}
	b.ReportMetric(at1m/1e6, "Mbps@1m")
}

// BenchmarkFig9REPBVsThroughput regenerates the per-range REPB
// frontiers (paper Fig. 9).
func BenchmarkFig9REPBVsThroughput(b *testing.B) {
	var cutoff05, cutoff5 float64
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig9(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range curves {
			switch c.DistanceM {
			case 0.5:
				cutoff05 = c.MaxThroughputBps()
			case 5:
				cutoff5 = c.MaxThroughputBps()
			}
		}
	}
	b.ReportMetric(cutoff05/1e6, "cutoff-Mbps@0.5m")
	b.ReportMetric(cutoff5/1e6, "cutoff-Mbps@5m")
}

// BenchmarkFig10REPBVsRange regenerates REPB vs range at the fixed
// 1.25 and 5 Mbps targets (paper Fig. 10).
func BenchmarkFig10REPBVsRange(b *testing.B) {
	var repb125 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.TargetBps == 1.25e6 && r.DistanceM == 2 && r.Achieved {
				repb125 = r.REPB
			}
		}
	}
	b.ReportMetric(repb125, "REPB@1.25Mbps,2m")
}

// BenchmarkFig11aCancellation regenerates the measured-vs-expected SNR
// scatter (paper Fig. 11a).
func BenchmarkFig11aCancellation(b *testing.B) {
	var med float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11a(10, 3, experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		med = res.MedianDegradationDB
	}
	b.ReportMetric(med, "median-degr-dB")
}

// BenchmarkFig11bMRCGain regenerates the BER-vs-symbol-rate waterfall
// (paper Fig. 11b).
func BenchmarkFig11bMRCGain(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11b(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		var hi, lo float64
		for _, r := range rows {
			if r.Mod.String() != "QPSK" {
				continue
			}
			if r.SymbolRateHz == 2.5e6 {
				hi = r.MeanSNRdB
			}
			if r.SymbolRateHz == 100e3 {
				lo = r.MeanSNRdB
			}
		}
		gain = lo - hi
	}
	b.ReportMetric(gain, "MRC-gain-dB")
}

// BenchmarkFig12aLoadedNetwork regenerates the loaded-network
// throughput CDF (paper Fig. 12a).
func BenchmarkFig12aLoadedNetwork(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12a(20, experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		frac = res.FractionOfOptimal()
	}
	b.ReportMetric(frac*100, "median-%-of-optimal")
}

// BenchmarkFig12bWiFiImpact regenerates WiFi network throughput vs tag
// distance (paper Fig. 12b).
func BenchmarkFig12bWiFiImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12b(2, experiments.QuickOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13aWorstCase regenerates the per-bitrate worst-case
// client micro-benchmark (paper Figs. 13a/13b).
func BenchmarkFig13aWorstCase(b *testing.B) {
	var degr54 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.WiFiMbps == 54 {
				degr54 = r.Result.SNRDegradationDB()
			}
		}
	}
	b.ReportMetric(degr54, "SNR-degr-dB@54Mbps")
}

// BenchmarkHeadlineVsPrior regenerates the abstract-level comparison
// against the prior WiFi backscatter system.
func BenchmarkHeadlineVsPrior(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		h, err := experiments.Headline(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		speedup = h.SpeedupAt1m()
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkLinkPacket times one end-to-end packet exchange at 1 m —
// the simulator's unit of work.
func BenchmarkLinkPacket(b *testing.B) {
	cfg := DefaultLinkConfig(1)
	link, err := NewLink(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := link.RandomPayload(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunPacket(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations times the design-choice ablation suite (analog
// stage, preamble length, TX EVM, coding).
func BenchmarkAblations(b *testing.B) {
	var analogGain float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		var full, digOnly float64
		for _, r := range rows {
			if r.Study == "analog cancellation stage" {
				if r.Variant == "digital-only" {
					digOnly = r.MeanSNRdB
				} else {
					full = r.MeanSNRdB
				}
			}
		}
		analogGain = full - digOnly
	}
	b.ReportMetric(analogGain, "analog-stage-dB")
}

// BenchmarkRobustness times the impairment-severity sweep (DESIGN.md
// §5d) and reports how much of the QPSK link survives the harshest
// modeled front end.
func BenchmarkRobustness(b *testing.B) {
	var qpskAtOne float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Robustness(experiments.QuickOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Severity == 1 && r.Mod.String() == "QPSK" {
				qpskAtOne = r.SuccessRate
			}
		}
	}
	b.ReportMetric(qpskAtOne, "QPSK-success@sev1")
}
