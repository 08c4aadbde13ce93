package core

import (
	"bytes"
	"math"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/fec"
	"backfi/internal/tag"
)

func TestEndToEndDefaultLink(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 7
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := link.RandomPayload(120)
	res, err := link.RunPacket(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadOK {
		t.Fatal("default link at 1 m should decode")
	}
	if !bytes.Equal(res.Decode.Payload, payload) {
		t.Fatal("decoded payload differs")
	}
	if res.RawBER() > 0.01 {
		t.Fatalf("raw BER %v too high at 1 m", res.RawBER())
	}
	if res.Decode.PreambleCorr < 0.9 {
		t.Fatalf("preamble correlation %v", res.Decode.PreambleCorr)
	}
}

func TestEndToEndAllModulations(t *testing.T) {
	for _, mod := range tag.Modulations {
		for _, coding := range []fec.CodeRate{fec.Rate12, fec.Rate23} {
			cfg := DefaultLinkConfig(0.5)
			cfg.Tag.Mod = mod
			cfg.Tag.Coding = coding
			cfg.Seed = 11
			link, err := NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := link.RunPacket(link.RandomPayload(60))
			if err != nil {
				t.Fatalf("%v/%v: %v", mod, coding, err)
			}
			if !res.PayloadOK {
				t.Fatalf("%v/%v should decode at 0.5 m", mod, coding)
			}
		}
	}
}

func TestEndToEndSymbolRates(t *testing.T) {
	// Every standard symbol rate that divides 20 MHz must work at
	// close range (lower rates get more MRC gain).
	for _, rs := range []float64{100e3, 500e3, 1e6, 2e6, 2.5e6} {
		cfg := DefaultLinkConfig(1)
		cfg.Tag.SymbolRateHz = rs
		cfg.Seed = 13
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := 40
		if rs < 5e5 {
			n = 8 // keep low-rate excitations short
		}
		res, err := link.RunPacket(link.RandomPayload(n))
		if err != nil {
			t.Fatalf("rs=%v: %v", rs, err)
		}
		if !res.PayloadOK {
			t.Fatalf("rs=%v should decode at 1 m", rs)
		}
	}
}

func TestMRCGainImprovesSNRAtLowerSymbolRate(t *testing.T) {
	// Paper Fig. 11b: lower symbol rate → more samples combined →
	// higher post-MRC SNR. Compare at 4 m where thermal noise matters.
	measure := func(rs float64) float64 {
		var sum float64
		const reps = 5
		for i := 0; i < reps; i++ {
			cfg := DefaultLinkConfig(4)
			cfg.Tag.SymbolRateHz = rs
			cfg.Seed = 100 + int64(i)
			link, err := NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := link.RunPacket(link.RandomPayload(24))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.MeasuredSNRdB
		}
		return sum / reps
	}
	fast := measure(2.5e6)
	slow := measure(500e3)
	if slow <= fast+3 {
		t.Fatalf("MRC gain missing: %.1f dB at 500k vs %.1f dB at 2.5M", slow, fast)
	}
}

func TestSNRDegradationVsOracleIsSmall(t *testing.T) {
	// Paper Fig. 11a: measured post-MRC SNR within a few dB of the
	// oracle expectation.
	var degr []float64
	for i := 0; i < 8; i++ {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = 200 + int64(i)
		link, err := NewLink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunPacket(link.RandomPayload(60))
		if err != nil {
			t.Fatal(err)
		}
		degr = append(degr, res.ExpectedMRCSNRdB-res.MeasuredSNRdB)
	}
	// Median degradation should be positive and bounded: the paper
	// attributes ≈2.3 dB to cancellation residue alone; our chain adds
	// channel-estimation and TX-distortion losses on top.
	med := median(degr)
	if med < 0 || med > 12 {
		t.Fatalf("median SNR degradation %v dB", med)
	}
}

func median(v []float64) float64 {
	s := append([]float64{}, v...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestThroughputDecreasesWithRange(t *testing.T) {
	// The headline shape: max decodable throughput is non-increasing
	// with distance and spans the paper's claimed envelope.
	cfgs := []tag.Config{
		{Mod: tag.PSK16, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 1},
		{Mod: tag.PSK16, Coding: fec.Rate12, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 1},
		{Mod: tag.QPSK, Coding: fec.Rate23, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 1},
		{Mod: tag.QPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: 32, ID: 1},
		{Mod: tag.BPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: 32, ID: 1},
	}
	prev := math.Inf(1)
	bests := map[float64]float64{}
	for _, d := range []float64{0.5, 2, 5} {
		var results []Feasibility
		for i, c := range cfgs {
			f, err := Evaluate(channel.DefaultConfig(d), c, DefaultLinkConfig(d).Reader, nil, 5, 24, 900+int64(i), 0)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, f)
		}
		best, ok := BestThroughput(results)
		if !ok {
			t.Fatalf("nothing decodes at %v m", d)
		}
		if best.ThroughputBps > prev {
			t.Fatalf("throughput increased with distance at %v m", d)
		}
		prev = best.ThroughputBps
		bests[d] = best.ThroughputBps
	}
	if bests[0.5] < 5e6 {
		t.Fatalf("close-range throughput %v, want ≥ 5 Mbps", bests[0.5])
	}
	if bests[5] < 0.5e6 {
		t.Fatalf("5 m throughput %v, want ≥ 0.5 Mbps", bests[5])
	}
}

func TestLinkConfigValidation(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.WiFiMbps = 7
	if _, err := NewLink(cfg); err == nil {
		t.Fatal("expected error for invalid WiFi rate")
	}
	cfg = DefaultLinkConfig(1)
	cfg.WiFiPSDUBytes = 0
	if _, err := NewLink(cfg); err == nil {
		t.Fatal("expected error for zero PSDU size")
	}
	cfg = DefaultLinkConfig(1)
	cfg.Tag.SymbolRateHz = 0
	if _, err := NewLink(cfg); err == nil {
		t.Fatal("expected error for invalid tag config")
	}
}

func TestExcitationAutoSizing(t *testing.T) {
	// A large payload at a low symbol rate must stretch the excitation
	// over multiple PPDUs.
	cfg := DefaultLinkConfig(0.5)
	cfg.Tag.SymbolRateHz = 100e3
	cfg.Seed = 5
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.RunPacket(link.RandomPayload(100))
	if err != nil {
		t.Fatal(err)
	}
	oneppdu := 12000 // ≈ a 1500-byte 24 Mbps PPDU in samples
	if res.ExcitationSamples <= oneppdu {
		t.Fatalf("excitation %d samples should exceed one PPDU", res.ExcitationSamples)
	}
	if !res.PayloadOK {
		t.Fatal("multi-PPDU excitation should still decode")
	}
}

func TestEvaluateAndDecodable(t *testing.T) {
	tc := tag.Config{Mod: tag.QPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: 32, ID: 1}
	f, err := Evaluate(channel.DefaultConfig(1), tc, DefaultLinkConfig(1).Reader, nil, 5, 24, 31, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Decodable() {
		t.Fatalf("QPSK 1/2 @1M at 1 m should be decodable (%.2f)", f.SuccessRate)
	}
	if f.ThroughputBps != 1e6 {
		t.Fatalf("throughput %v", f.ThroughputBps)
	}
	if f.REPB <= 0 {
		t.Fatalf("REPB %v", f.REPB)
	}
	if _, err := Evaluate(channel.DefaultConfig(1), tc, DefaultLinkConfig(1).Reader, nil, 0, 24, 31, 0); err == nil {
		t.Fatal("expected error for zero trials")
	}
}

func TestStandardConfigsEnumeration(t *testing.T) {
	cfgs := StandardConfigs(32, 3)
	if len(cfgs) != 36 {
		t.Fatalf("%d configs, want 36", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if c.PreambleChips != 32 || c.ID != 3 {
			t.Fatalf("config fields not propagated: %+v", c)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if seen[c.String()] {
			t.Fatalf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
}

func TestSelectionHelpers(t *testing.T) {
	mk := func(bps, repb, succ float64) Feasibility {
		return Feasibility{SuccessRate: succ, ThroughputBps: bps, REPB: repb}
	}
	results := []Feasibility{
		mk(1e6, 1.3, 1.0),
		mk(1e6, 1.0, 1.0),   // same throughput, cheaper
		mk(5e6, 2.7, 1.0),   // fastest decodable
		mk(6.7e6, 1.9, 0.5), // fast but not decodable
	}
	best, ok := BestThroughput(results)
	if !ok || best.ThroughputBps != 5e6 {
		t.Fatalf("BestThroughput = %+v", best)
	}
	cheap, ok := MinREPBAtThroughput(results, 1e6)
	if !ok || cheap.REPB != 1.0 {
		t.Fatalf("MinREPBAtThroughput = %+v", cheap)
	}
	if _, ok := MinREPBAtThroughput(results, 10e6); ok {
		t.Fatal("nothing should achieve 10 Mbps")
	}
	pareto := ParetoREPB(results)
	if len(pareto) != 2 {
		t.Fatalf("pareto size %d", len(pareto))
	}
	if pareto[0].ThroughputBps != 1e6 || pareto[0].REPB != 1.0 {
		t.Fatalf("pareto[0] = %+v", pareto[0])
	}
	if pareto[1].ThroughputBps != 5e6 {
		t.Fatalf("pareto[1] = %+v", pareto[1])
	}
	if _, ok := BestThroughput(nil); ok {
		t.Fatal("empty results should not find a best")
	}
}

func TestExtendedPreambleImprovesEdge(t *testing.T) {
	// Paper Fig. 8: at the range edge (7 m), the 96 µs preamble gives a
	// better channel estimate and hence equal or higher decodable
	// throughput than 32 µs.
	run := func(chips int) float64 {
		tc := tag.Config{Mod: tag.BPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: chips, ID: 1}
		f, err := Evaluate(channel.DefaultConfig(7), tc, DefaultLinkConfig(7).Reader, nil, 6, 16, 55, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f.SuccessRate
	}
	short := run(tag.DefaultPreambleChips)
	long := run(tag.ExtendedPreambleChips)
	if long < short {
		t.Fatalf("96 µs preamble success %.2f below 32 µs %.2f at 7 m", long, short)
	}
}
