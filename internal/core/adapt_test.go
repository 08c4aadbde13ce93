package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// partialWakeChannel returns a placement where, at seed 7 over 16
// trials, some tags wake and some do not (found empirically: the wake
// detector's threshold sits just above this TX power at 1 m). It
// exercises the statistics paths that differ between all-wake and
// no-wake populations.
func partialWakeChannel() channel.Config {
	ch := channel.DefaultConfig(1)
	ch.TxPowerDBm = 3.5 // withDefaults only replaces zero, so this sticks
	return ch
}

// TestFeasibilityStatsPartialWake pins the Monte-Carlo reduction: with
// a placement where only part of the trials wake, SuccessRate and
// WakeRate are per-trial fractions while MeanSNRdB/MeanRawBER average
// over the decoded trials only. The historical bug divided the sums by
// the trial count, biasing both means toward zero whenever any tag
// slept; here the means are recomputed trial by trial and must match
// exactly.
func TestFeasibilityStatsPartialWake(t *testing.T) {
	const trials = 16
	const seed = 7
	base := DefaultLinkConfig(1)
	ch := partialWakeChannel()

	f, err := Evaluate(ch, base.Tag, base.Reader, nil, trials, 24, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.WakeRate <= 0 || f.WakeRate >= 1 {
		t.Fatalf("placement must partially wake for this test: WakeRate=%v", f.WakeRate)
	}

	// Recompute the reduction sequentially from the same per-trial seeds.
	var snrSum, berSum float64
	success, decoded := 0, 0
	for i := 0; i < trials; i++ {
		lc := LinkConfig{
			Channel:       ch,
			Tag:           base.Tag,
			Reader:        base.Reader,
			WiFiMbps:      24,
			WiFiPSDUBytes: 1500,
			Seed:          rng.Mix(seed, i),
		}
		link, err := NewLink(lc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunPacket(link.RandomPayload(24))
		if err != nil {
			if errors.Is(err, ErrTagNoWake) {
				continue
			}
			t.Fatal(err)
		}
		decoded++
		if res.PayloadOK {
			success++
		}
		snrSum += res.MeasuredSNRdB
		berSum += res.RawBER()
	}
	if decoded == 0 || decoded == trials {
		t.Fatalf("expected a partial wake population, got %d/%d", decoded, trials)
	}
	if got, want := f.WakeRate, float64(decoded)/trials; got != want {
		t.Fatalf("WakeRate %v, want %v", got, want)
	}
	if got, want := f.SuccessRate, float64(success)/trials; got != want {
		t.Fatalf("SuccessRate %v, want %v", got, want)
	}
	if got, want := f.MeanSNRdB, snrSum/float64(decoded); got != want {
		t.Fatalf("MeanSNRdB %v, want %v (decoded-trial mean, not /trials)", got, want)
	}
	if got, want := f.MeanRawBER, berSum/float64(decoded); got != want {
		t.Fatalf("MeanRawBER %v, want %v", got, want)
	}
	// The sleeping trials must not have diluted the mean: dividing the
	// same sum by the trial count would land measurably lower.
	if diluted := snrSum / trials; math.Abs(f.MeanSNRdB-diluted) < 1 {
		t.Fatalf("test placement too weak to distinguish the divisors (%v vs %v)", f.MeanSNRdB, diluted)
	}
}

// TestEvaluateSurfacesPipelineErrors pins satellite #2: a RunPacket
// failure that is not ErrTagNoWake must propagate out of the
// evaluation instead of being silently counted as a lost packet. A SIC
// digital filter longer than half the 320-sample silent window makes
// training impossible on every trial.
func TestEvaluateSurfacesPipelineErrors(t *testing.T) {
	base := DefaultLinkConfig(1)
	rdr := base.Reader
	rdr.SIC.DigitalTaps = 200 // needs 400 training samples; only 320 exist
	_, err := Evaluate(channel.DefaultConfig(1), base.Tag, rdr, nil, 4, 24, 1, 0)
	if err == nil {
		t.Fatal("broken SIC config should surface an error")
	}
	if errors.Is(err, ErrTagNoWake) {
		t.Fatalf("pipeline failure misclassified as no-wake: %v", err)
	}
}

// TestEvaluateRejectsInvalidConfigs covers the panic-free contract at
// the evaluation entry points.
func TestEvaluateRejectsInvalidConfigs(t *testing.T) {
	base := DefaultLinkConfig(1)
	badTag := base.Tag
	badTag.Mod = tag.Modulation(42)
	if _, err := Evaluate(channel.DefaultConfig(1), badTag, base.Reader, nil, 1, 8, 1, 0); err == nil {
		t.Fatal("unknown modulation should error")
	}
	badFaults := &fault.Profile{ACKDropProb: 2}
	if _, err := Evaluate(channel.DefaultConfig(1), base.Tag, base.Reader, badFaults, 1, 8, 1, 0); err == nil {
		t.Fatal("invalid fault profile should error")
	}
	if _, err := Evaluate(channel.DefaultConfig(1), base.Tag, base.Reader, nil, 0, 8, 1, 0); err == nil {
		t.Fatal("zero trials should error")
	}
}

// TestParetoREPBDeterministicOrder pins satellite #3: ParetoREPB
// iterates a map, so its output order must come entirely from the
// deterministic sort — ascending throughput, ties broken by REPB and
// then by the configuration's name.
func TestParetoREPBDeterministicOrder(t *testing.T) {
	mk := func(sym float64, mod tag.Modulation, coding fec.CodeRate, repb float64) Feasibility {
		return Feasibility{
			Cfg:           tag.Config{Mod: mod, Coding: coding, SymbolRateHz: sym, PreambleChips: 32},
			SuccessRate:   1,
			ThroughputBps: 1e6,
			REPB:          repb,
		}
	}
	// Same throughput everywhere: order must fall back to REPB, then to
	// the config name for the REPB tie.
	in := []Feasibility{
		mk(1e6, tag.QPSK, fec.Rate12, 1.4),
		mk(2e6, tag.BPSK, fec.Rate12, 1.4),
		mk(1e6, tag.BPSK, fec.Rate23, 1.1),
	}
	// Distinct throughputs to populate the map with several keys.
	in = append(in,
		Feasibility{Cfg: tag.Config{Mod: tag.BPSK, Coding: fec.Rate12, SymbolRateHz: 5e5, PreambleChips: 32}, SuccessRate: 1, ThroughputBps: 5e5, REPB: 2},
		Feasibility{Cfg: tag.Config{Mod: tag.PSK16, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: 32}, SuccessRate: 1, ThroughputBps: 2e6, REPB: 3},
	)

	want := ""
	for trial := 0; trial < 50; trial++ {
		out := ParetoREPB(in)
		got := ""
		for _, f := range out {
			got += fmt.Sprintf("%v|%v|%v;", f.ThroughputBps, f.REPB, f.Cfg)
		}
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("ParetoREPB order unstable:\n%s\nvs\n%s", want, got)
		}
	}
	// And the sort itself keeps full slices (with duplicates the map
	// would collapse) in the documented order.
	fs := []Feasibility{in[0], in[1], in[2]}
	sortByThroughput(fs)
	if fs[0].REPB != 1.1 {
		t.Fatalf("lowest REPB should sort first at equal throughput, got %+v", fs[0])
	}
	if !(fs[1].Cfg.String() < fs[2].Cfg.String()) {
		t.Fatalf("REPB tie should break on config name: %v then %v", fs[1].Cfg, fs[2].Cfg)
	}
}
