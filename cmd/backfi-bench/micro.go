package main

import (
	"errors"
	"fmt"
	"log"
	"testing"

	"backfi/internal/benchio"
	"backfi/internal/core"
	"backfi/internal/fault"
)

// microCase is one timed variant of the single-tag link pipeline: a
// 24 B frame at 2 m, the serving ledger's operating point.
type microCase struct {
	key string
	// fresh opens a new link per frame, so each timed frame also builds
	// its excitation template; otherwise one link sends every frame.
	fresh  bool
	faults bool
}

var microCases = []microCase{
	{key: "first_frame_ns_per_op", fresh: true},
	{key: "steady_ns_per_op"},
	{key: "steady_faulted_ns_per_op", faults: true},
}

// runMicro times every case reps times with testing.Benchmark and
// merges the spreads, with the host they ran on, under micro.RunPacket.
func runMicro(reps int, path string) error {
	entry := map[string]any{
		"machine": benchio.Host(),
		"note": fmt.Sprintf("ns per RunPacket, 24 B at 2 m, spread over %d runs of testing.Benchmark; "+
			"first_frame opens a fresh link per frame (template build included), steady reuses one link, "+
			"steady_faulted adds fault.Standard(0.1). Command: backfi-bench -micro %d -benchout BENCH_results.json", reps, reps),
	}
	for _, mc := range microCases {
		var ns []float64
		for r := 0; r < reps; r++ {
			var runErr error
			res := testing.Benchmark(func(b *testing.B) { runErr = mc.run(b) })
			if runErr != nil {
				return fmt.Errorf("%s: %w", mc.key, runErr)
			}
			ns = append(ns, float64(res.NsPerOp()))
		}
		sp := benchio.SpreadOf(ns)
		entry[mc.key] = sp
		log.Printf("%-26s median %.0f ns/op [%.0f, %.0f]", mc.key, sp.Median, sp.Min, sp.Max)
	}
	if path == "" {
		return nil
	}
	if err := benchio.Merge(path, "micro.RunPacket", entry); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

func (mc microCase) run(b *testing.B) error {
	cfg := core.DefaultLinkConfig(2)
	if mc.faults {
		p := fault.Standard(0.1)
		cfg.Faults = &p
	}
	link, err := core.NewLink(cfg)
	if err != nil {
		return err
	}
	payload := link.RandomPayload(24)
	links := make([]*core.Link, b.N)
	for i := range links {
		links[i] = link
		if mc.fresh {
			c := cfg
			c.Seed = int64(i + 1)
			if links[i], err = core.NewLink(c); err != nil {
				return err
			}
		}
	}
	b.ResetTimer()
	for _, l := range links {
		if _, err := l.RunPacket(payload); err != nil && !errors.Is(err, core.ErrTagNoWake) {
			return err
		}
	}
	return nil
}
