package experiments

import (
	"testing"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/parallel"
	"backfi/internal/reader"
	"backfi/internal/tag"
)

// TestEvaluateWorkersBitIdentical is the engine's core contract: the
// Monte-Carlo summary must not depend on the worker count, because
// every trial seeds from its index and reduction happens in index
// order.
func TestEvaluateWorkersBitIdentical(t *testing.T) {
	cfg := tag.Config{
		Mod:           tag.QPSK,
		Coding:        fec.Rate12,
		SymbolRateHz:  1e6,
		PreambleChips: tag.DefaultPreambleChips,
		ID:            1,
	}
	rdr := reader.DefaultConfig()
	seq, err := core.Evaluate(channel.DefaultConfig(1), cfg, rdr, nil, 6, 24, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.Evaluate(channel.DefaultConfig(1), cfg, rdr, nil, 6, 24, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if seq != par {
		t.Fatalf("workers=1 vs workers=8 diverged:\n  seq %+v\n  par %+v", seq, par)
	}
}

// TestFig8DeterministicAcrossWorkers renders the full Fig. 8 table
// once sequentially and once with 8 workers and requires the outputs
// to be byte-identical.
func TestFig8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	run := func(workers int) string {
		rows, err := Fig8(Options{Trials: 2, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return RenderFig8(rows)
	}
	seq := run(1)
	par := run(8)
	if seq != par {
		t.Fatalf("Fig8 diverged across worker counts:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestFig12aDeterministicAcrossWorkers covers the per-index RNG
// derivation: each AP's trace must come out the same whether APs
// replay sequentially or concurrently.
func TestFig12aDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []float64 {
		res, err := Fig12a(12, Options{Trials: 2, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res.PerAPBps
	}
	seq := run(1)
	par := run(8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("AP %d diverged: %v vs %v", i, seq[i], par[i])
		}
	}
}

// TestMetricsDoNotPerturbFigures is the observability contract: an
// attached registry (plus the parallel pool's instrumentation) is a
// write-only observer, so figure output must be byte-identical with
// metrics enabled and disabled, sequentially and concurrently.
func TestMetricsDoNotPerturbFigures(t *testing.T) {
	run := func(workers int, instrumented bool) string {
		opt := Options{Trials: 2, Seed: 5, Workers: workers}
		if instrumented {
			opt.Obs = obs.NewRegistry()
			parallel.SetRegistry(opt.Obs)
			t.Cleanup(func() { parallel.SetRegistry(nil) })
		}
		res, err := Fig11a(4, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		return RenderFig11a(res)
	}
	plain := run(1, false)
	for _, c := range []struct {
		workers      int
		instrumented bool
	}{{1, true}, {8, false}, {8, true}} {
		if got := run(c.workers, c.instrumented); got != plain {
			t.Fatalf("workers=%d instrumented=%v diverged from plain sequential output:\n%s\nvs\n%s",
				c.workers, c.instrumented, got, plain)
		}
	}
}
