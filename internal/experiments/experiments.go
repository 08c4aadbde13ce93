// Package experiments regenerates every table and figure of the
// BackFi paper's evaluation (Sec. 6). Each harness returns typed rows
// plus a paper-style text rendering; cmd/backfi-bench drives them all
// and bench_test.go exposes each as a testing.B benchmark.
//
// Absolute numbers come from the calibrated simulator (see DESIGN.md);
// what is asserted and reported is the paper's shape: who wins, by
// what rough factor, and where the crossovers fall.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/parallel"
	"backfi/internal/rng"
)

// Options tunes experiment fidelity.
type Options struct {
	// Trials is the Monte-Carlo packet count per point.
	Trials int
	// Seed drives all randomness: every Monte-Carlo draw is keyed by
	// (Seed, figure, point, trial) through trialSeed.
	Seed int64
	// Workers bounds the evaluation concurrency at both fan-out levels
	// (grid points and Monte-Carlo trials): 0 uses every CPU, 1
	// reproduces the historical sequential execution order exactly.
	// Results are bit-identical for every value — each work item
	// derives its randomness from its index and writes into a
	// pre-indexed slot, and reduction happens in index order.
	Workers int
	// Obs, when non-nil, collects pipeline metrics (stage durations,
	// SIC/decoder health, per-figure wall clock) from every link the
	// harness builds. Metrics are write-only observers of the
	// deterministic trial grid, so figure outputs are byte-identical
	// with or without a registry (see determinism_test.go).
	Obs *obs.Registry
	// Faults injects an RF-impairment profile into every link the
	// harness builds (DESIGN.md §5d). Nil runs the paper's ideal front
	// end and leaves every figure byte-identical to an unfaulted build.
	Faults *fault.Profile
}

// DefaultOptions gives publication-grade fidelity; QuickOptions is for
// benchmarks and CI. Both run on all available CPUs.
func DefaultOptions() Options { return Options{Trials: 10, Seed: 1} }

// QuickOptions runs each point with the minimum statistically useful
// trial count.
func QuickOptions() Options { return Options{Trials: 3, Seed: 1} }

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = DefaultOptions().Trials
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	o.Workers = parallel.Normalize(o.Workers)
	return o
}

// trialSeed is the seed of one Monte-Carlo draw: trial `trial` at grid
// point `point` of figure fig. The four keys fold through rng.Mix, so
// draws are independent across seeds, figures, points and trials alike
// (DESIGN.md §5q). A harness that wants common random numbers across an
// axis leaves that axis out of the key.
func (o Options) trialSeed(fig string, point, trial int) int64 {
	s := o.Seed
	for _, c := range []byte(fig) {
		s = rng.Mix(s, int(c))
	}
	return rng.Mix(rng.Mix(s, point), trial)
}

// figureSpan times one figure harness end to end under
// backfi_figure_duration_seconds{fig="..."}. The returned span's End is
// safe on the zero value, so harnesses call it unconditionally.
func (o Options) figureSpan(fig string) obs.Span {
	return o.Obs.Histogram(obs.MetricFigureDuration, "Wall-clock seconds per figure harness.", obs.DurationBuckets, "fig", fig).Start()
}

// table renders aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// percentile returns the p-quantile (p in [0,1]) of values by linear
// interpolation between order statistics, sorting a copy. Callers that
// need several quantiles of the same data should sort once and use
// percentileSorted.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64{}, values...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over already-sorted data, avoiding
// the per-call copy and re-sort.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mbps(bps float64) string { return fmt.Sprintf("%.2f", bps/1e6) }
