package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fault"
	"backfi/internal/obs"
)

func meanDB(v []float64) float64 {
	var m float64
	for _, s := range v {
		m += s
	}
	return m / float64(len(v))
}

func TestMIMODecodesAndCombines(t *testing.T) {
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 5
	link, err := NewMIMOLink(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := link.RandomPayload(80)
	res, err := link.RunPacket(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadOK || !bytes.Equal(res.Decode.Payload, payload) {
		t.Fatal("3-antenna link should decode at 2 m")
	}
	if len(res.Decode.PerAntennaSNRdB) != 3 || len(res.Decode.PerAntennaSIC) != 3 {
		t.Fatalf("per-antenna diagnostics missing: %d / %d",
			len(res.Decode.PerAntennaSNRdB), len(res.Decode.PerAntennaSIC))
	}
	// The joint combine must beat the average single antenna.
	if mean := meanDB(res.Decode.PerAntennaSNRdB); res.MeasuredSNRdB <= mean {
		t.Fatalf("joint SNR %v not above per-antenna mean %v", res.MeasuredSNRdB, mean)
	}
}

func TestMIMOGainOverSISO(t *testing.T) {
	// Average the combining gain over several placements: ~10log10(N)
	// plus diversity, so 4 antennas should give >4 dB on average.
	var gain float64
	const reps = 6
	for i := 0; i < reps; i++ {
		cfg := DefaultLinkConfig(3)
		cfg.Seed = 40 + int64(i)
		link, err := NewMIMOLink(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := link.RunPacket(link.RandomPayload(32))
		if err != nil {
			t.Fatal(err)
		}
		gain += res.MeasuredSNRdB - meanDB(res.Decode.PerAntennaSNRdB)
	}
	gain /= reps
	if gain < 3 {
		t.Fatalf("4-antenna combining gain %v dB, want ≥ 3", gain)
	}
}

// A one-antenna MIMO link is the single-antenna link: same placement,
// same draws, and a result equal to Link.RunPacket's field for field.
func TestMIMOSingleAntennaMatchesSISOBehaviour(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 9
	link, err := NewMIMOLink(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.RunPacket(link.RandomPayload(40))
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadOK {
		t.Fatal("single-antenna MIMO link should decode at 1 m")
	}
	if res.Decode.PerAntennaSNRdB != nil || res.Decode.PerAntennaSIC != nil {
		t.Fatal("a single chain carries no per-antenna diagnostics")
	}
	siso, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := siso.RunPacket(siso.RandomPayload(40))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("1-antenna link diverged from Link.RunPacket:\nmimo: %+v\nsiso: %+v", res, want)
	}
}

// goldenMIMO4Hash pins a 1-tag 4-chain link's results field for field:
// three frames each on a clean and a faulted link, every field printed
// exactly (fmt prints floats in their shortest round-trip form). It
// moves if the extra chains' draw order does.
const goldenMIMO4Hash = 0x309b5fcaf50f55ea

func TestMIMOFourChainGolden(t *testing.T) {
	prof := fault.Standard(0.3)
	h := fnv.New64a()
	for _, faults := range []*fault.Profile{nil, &prof} {
		cfg := DefaultLinkConfig(2)
		cfg.Seed = 17
		cfg.Faults = faults
		link, err := NewMIMOLink(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			res, err := link.RunPacket(link.RandomPayload(24))
			if err != nil {
				fmt.Fprintf(h, "%v\n", err)
				continue
			}
			dec := *res.Decode
			res.Decode = nil
			fmt.Fprintf(h, "%+v|%+v\n", *res, dec)
		}
	}
	if got := h.Sum64(); got != goldenMIMO4Hash {
		t.Fatalf("1-tag 4-chain golden hash %#x, want %#x", got, uint64(goldenMIMO4Hash))
	}
}

// K tags on N chains is one constructor argument away: a 2-tag link on
// a 2-antenna AP, each tag with its own backward channel into the
// second chain, delivers both tags of a group slot.
func TestKTagsNChainsSlot(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := DefaultLinkConfig(1)
		cfg.Seed = seed
		link, err := newLink(cfg, []float64{1, 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, hb0 := link.chainTaps(1, 0)
		_, hb1 := link.chainTaps(1, 1)
		if slices.Equal(hb0, hb1) {
			t.Fatal("both tags share one backward channel into chain 1")
		}
		if err := link.SetWakeGroup(groupWakeID); err != nil {
			t.Fatal(err)
		}
		pay := slotPayloads(seed, 0, 2)
		res, err := link.RunSlot([]int{0, 1}, pay)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: delivered %d, order %v", seed, res.Delivered, res.Order)
		for k, pr := range res.Results {
			if pr == nil || !pr.Delivered || len(pr.Decode.PerAntennaSNRdB) != 2 {
				t.Fatalf("seed %d: tag %d not delivered on 2 chains: %+v", seed, k, pr)
			}
		}
	}
}

func TestMIMOValidation(t *testing.T) {
	if _, err := NewMIMOLink(DefaultLinkConfig(1), 0); err == nil {
		t.Fatal("expected error for zero antennas")
	}
	bad := DefaultLinkConfig(1)
	bad.Tag.SymbolRateHz = 0
	if _, err := NewMIMOLink(bad, 2); err == nil {
		t.Fatal("expected config validation error")
	}
}

// Every extra chain is its own placement draw: distinct
// self-interference and backward channels (independent fading is the
// point of diversity) behind the one forward channel.
func TestMIMOChainStructure(t *testing.T) {
	link, err := NewMIMOLink(DefaultLinkConfig(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(link.chains) != 2 {
		t.Fatalf("%d extra chains, want 2", len(link.chains))
	}
	for c := 0; c < 3; c++ {
		for d := c + 1; d < 3; d++ {
			envC, hbC := link.chainTaps(c, 0)
			envD, hbD := link.chainTaps(d, 0)
			if slices.Equal(hbC, hbD) || slices.Equal(envC, envD) {
				t.Fatalf("chains %d and %d share a channel: no diversity", c, d)
			}
		}
	}
}

func TestMIMOExtendsRange(t *testing.T) {
	// At a distance where one antenna struggles, four antennas should
	// succeed at least as often.
	success := func(nrx int) int {
		ok := 0
		for i := 0; i < 5; i++ {
			cfg := DefaultLinkConfig(6)
			cfg.Tag.SymbolRateHz = 2e6
			cfg.Seed = 70 + int64(i)
			link, err := NewMIMOLink(cfg, nrx)
			if err != nil {
				t.Fatal(err)
			}
			res, err := link.RunPacket(link.RandomPayload(24))
			if err != nil {
				continue
			}
			if res.PayloadOK {
				ok++
			}
		}
		return ok
	}
	if s1, s4 := success(1), success(4); s4 < s1 {
		t.Fatalf("4 antennas (%d/5) worse than 1 (%d/5) at 6 m", s4, s1)
	}
}

// The multi-antenna link runs the single-tag pipeline, so faults,
// metrics and tracing reach it: a faulted 2-chain link injects faults,
// and a traced 2-chain frame records the pipeline's spans.
func TestMIMOFaultsMetricsTracing(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		reg := obs.NewRegistry()
		prof := fault.Standard(0.6)
		cfg := DefaultLinkConfig(2)
		cfg.Obs = reg
		cfg.Faults = &prof
		link, err := NewMIMOLink(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := link.RunPacket(link.RandomPayload(24)); err != nil && !errors.Is(err, ErrTagNoWake) {
				t.Fatal(err)
			}
		}
		var injected int64
		for _, c := range reg.Snapshot().Counters {
			if c.Name == obs.MetricFaultsInjected {
				injected += c.Value
			}
		}
		if injected == 0 {
			t.Fatalf("faulted 2-chain link injected no faults (%s)", obs.MetricFaultsInjected)
		}
	})
	t.Run("tracing", func(t *testing.T) {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 1})
		link, err := NewMIMOLink(DefaultLinkConfig(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		link.SetTrace(tracer.Head("mimo", 0))
		if _, err := link.RunPacket(link.RandomPayload(24)); err != nil {
			t.Fatal(err)
		}
		spans := map[string]int{}
		for _, ev := range tracer.Events() {
			spans[ev.Name]++
		}
		for _, name := range []string{"channel_sim", "sic_train", "viterbi"} {
			if spans[name] == 0 {
				t.Errorf("no %q span recorded; got %v", name, spans)
			}
		}
	})
}

// Custom excitations run on every receive chain with no extra code: a
// 2-chain link decodes a ZigBee excitation.
func TestMIMOZigbeeExcitation(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Tag.SymbolRateHz = 500e3
	cfg.Seed = 6
	link, err := NewMIMOLink(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	payload := link.RandomPayload(24)
	exc := buildZigbeeExcitation(t, link, 320+link.Tag.Cfg.PreambleSamples()+40*600)
	res, err := link.RunCustomExcitation(exc, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PayloadOK || len(res.Decode.PerAntennaSNRdB) != 2 {
		t.Fatalf("2-chain BackFi over Zigbee failed: ok %v, SNR %.1f dB, per antenna %v",
			res.PayloadOK, res.MeasuredSNRdB, res.Decode.PerAntennaSNRdB)
	}
}

// TestMRCGainOracle holds cross-antenna MRC to theory: with the same
// channels on every chain, independent noise and ideal hardware, N
// chains gain 10·log10(N) dB over one. Averaged over 50 packets, joint
// SNR minus the mean per-antenna SNR must be within 0.75 dB of it.
func TestMRCGainOracle(t *testing.T) {
	for _, nrx := range []int{2, 4} {
		want := dsp.DB(float64(nrx))
		var gain float64
		packets := 0
		for seed := int64(1); packets < 50; seed++ {
			cfg := DefaultLinkConfig(mrcOracleDistanceM)
			cfg.Seed = 500 + seed
			cfg.Channel.TxEVMdB = math.Inf(-1)
			link, err := NewMIMOLink(cfg, nrx)
			if err != nil {
				t.Fatal(err)
			}
			for c := range link.chains {
				link.chains[c] = rxChain{HEnv: link.Scenario.HEnv, HB: []channel.Taps{link.Scenario.HB}}
			}
			res, err := link.RunPacket(link.RandomPayload(24))
			if errors.Is(err, ErrTagNoWake) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			gain += res.MeasuredSNRdB - meanDB(res.Decode.PerAntennaSNRdB)
			packets++
		}
		gain /= float64(packets)
		t.Logf("%d chains: mean MRC gain %.2f dB over %d packets (theory %.2f dB)", nrx, gain, packets, want)
		if math.Abs(gain-want) > 0.75 {
			t.Errorf("%d chains: mean MRC gain %.2f dB, want %.2f ± 0.75 dB", nrx, gain, want)
		}
	}
}

// mrcOracleDistanceM puts each chain's post-MRC SNR where thermal noise
// dominates and symbol decisions are reliable, the regime the
// 10·log10(N) law describes.
const mrcOracleDistanceM = 5

// mimoSteadyLink is the 4-chain benchmark deployment: 24 B at 2 m.
func mimoSteadyLink(tb testing.TB) (*Link, []byte) {
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 17
	link, err := NewMIMOLink(cfg, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return link, link.RandomPayload(24)
}

// TestMIMOSteadyAllocs pins that a 4-chain frame runs in pooled frame
// scratch: once warm, a frame allocates only its results, never a
// waveform-sized buffer (maxSlotBytes, as for multi-tag slots).
func TestMIMOSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	link, pay := mimoSteadyLink(t)
	perFrame, allocs := steadyFrameBytes(t, func() error {
		_, err := link.RunPacket(pay)
		return err
	})
	t.Logf("%d B, %d allocs per frame", perFrame, allocs)
	if perFrame >= maxSlotBytes {
		t.Fatalf("steady-state 4-chain frame allocates %d B, want < %d", perFrame, maxSlotBytes)
	}
}

// BenchmarkRunPacket4Rx measures one steady-state 4-chain frame:
// windowed channel simulation plus the multi-chain decode. CI checks
// its B/op against maxSlotBytes.
func BenchmarkRunPacket4Rx(b *testing.B) {
	link, pay := mimoSteadyLink(b)
	if _, err := link.RunPacket(pay); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := link.RunPacket(pay); err != nil {
			b.Fatal(err)
		}
	}
}
