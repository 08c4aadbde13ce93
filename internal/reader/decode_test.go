package reader

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// TestDecodeUndecodableIsTyped pins the failures that leave a tag
// without a layer — a packet too short for its preamble and a singular
// channel fit — as nil entries whose error wraps ErrUndecodable, never
// as errors of the whole decode.
func TestDecodeUndecodableIsTyped(t *testing.T) {
	sc := buildScene(t, 71, qpskCfg(), 24, -60)
	cfg := DefaultConfig()
	cfg.Lambda = 0 // a zero normal matrix stays singular
	rd := mustNew(cfg)
	preStart := sc.packetStart + tag.SilentSamples
	silent := append([]complex128(nil), sc.x...)
	clear(silent[preStart : preStart+sc.tcfg.PreambleSamples()])
	for _, tc := range []struct {
		name      string
		x         []complex128
		packetLen int
	}{
		{"too-short", sc.x, tag.SilentSamples + 10},
		{"singular-fit", silent, sc.packetLen},
	} {
		d, err := rd.Decode(make([]Stream, 1), NewExcitation(tc.x), tc.x, [][]complex128{sc.y}, sc.packetStart, tc.packetLen, []tag.Config{sc.tcfg})
		if err != nil {
			t.Fatalf("%s: Decode: %v, want a nil layer", tc.name, err)
		}
		res, err := d.Tag(0)
		if res != nil || d.Tags[0] != nil || len(d.Order) != 0 {
			t.Fatalf("%s: decoded a layer", tc.name)
		}
		if !errors.Is(err, ErrUndecodable) {
			t.Fatalf("%s: error %v does not wrap ErrUndecodable", tc.name, err)
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// TestDecodeSteadyAllocs pins that the one decoder in reused Streams
// allocates only its results — per layer the Result, its payload,
// estimates, taps and per-antenna diagnostics — nothing sized by the
// capture, for a 2-tag slot on one chain and one tag on four. The
// excitation's memo is warm after the first decode, so its hits
// allocate nothing either.
func TestDecodeSteadyAllocs(t *testing.T) {
	rd := mustNew(DefaultConfig())
	joint := buildJointScene(t, 12, 2, 2, 1)
	mimo := buildMIMOScene(t, 12, 4, 2)
	for _, tc := range []struct {
		name        string
		x, xAir     []complex128
		ys          [][]complex128
		packetStart int
		packetLen   int
		cfgs        []tag.Config
	}{
		{"2tags_1rx", joint.x, joint.xAir, joint.ys, joint.packetStart, joint.packetLen, joint.cfgs},
		{"1tag_4rx", mimo.x, mimo.xAir, mimo.ys, mimo.packetStart, mimo.packetLen, []tag.Config{mimo.tcfg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := make([]Stream, len(tc.ys))
			ex := NewExcitation(tc.x)
			decode := func() {
				d, err := rd.Decode(ss, ex, tc.xAir, tc.ys, tc.packetStart, tc.packetLen, tc.cfgs)
				if err != nil {
					t.Fatal(err)
				}
				if len(d.Order) != len(tc.cfgs) {
					t.Fatalf("decoded %d of %d layers", len(d.Order), len(tc.cfgs))
				}
			}
			decode()
			n := testing.AllocsPerRun(20, decode)
			t.Logf("%v allocs per decode", n)
			if n > 20 {
				t.Fatalf("%v allocs per decode, want <= 20", n)
			}
		})
	}
}

// TestDecodeKTagsNChains decodes 2-tag slots on 2 receive chains, each
// with its own self-interference, backward channels and noise: every
// decoded layer carries both chains' diagnostics, and on the same
// captures the second chain delivers at least what chain 0 alone does.
func TestDecodeKTagsNChains(t *testing.T) {
	rd := mustNew(DefaultConfig())
	ss := make([]Stream, 2)
	delivered := [3]int{}
	const slots = 40
	for seed := int64(1); seed <= slots; seed++ {
		sc := buildJointScene(t, 7000+seed, 2, 4, 2)
		for _, nrx := range []int{1, 2} {
			d, err := rd.Decode(ss[:nrx], NewExcitation(sc.x), sc.xAir, sc.ys[:nrx], sc.packetStart, sc.packetLen, sc.cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for k, res := range d.Tags {
				if res == nil {
					continue
				}
				if nrx > 1 && (len(res.PerAntennaSIC) != nrx || len(res.PerAntennaSNRdB) != nrx) {
					t.Fatalf("seed %d tag %d: %d SIC and %d SNR diagnostics on %d chains", seed, k, len(res.PerAntennaSIC), len(res.PerAntennaSNRdB), nrx)
				}
				if res.FrameOK && bytes.Equal(res.Payload, sc.payloads[k]) {
					delivered[nrx]++
				}
			}
		}
	}
	t.Logf("%d slots x 2 tags: %d layers delivered on 1 chain, %d on 2", slots, delivered[1], delivered[2])
	if delivered[2] < delivered[1] {
		t.Fatalf("2 chains delivered %d layers, fewer than chain 0 alone (%d)", delivered[2], delivered[1])
	}
	if delivered[1] == 2*slots {
		t.Fatal("chain 0 alone delivers every layer: the ladder does not exercise diversity")
	}
}

// TestMRCGainTracksSymbolRate is the theory oracle of paper Eq. 7 on a
// controlled link: a constant-envelope excitation through a known
// one-tap channel, no self-interference (the silent window is
// noiseless, so the canceller learns nothing and subtracts nothing),
// AWGN only, and a 512-chip preamble so the channel fit's error is
// negligible. MRC over the sps−guard samples a symbol contributes must
// raise the post-MRC symbol SNR over the per-sample SNR by
// 10·log10(sps−guard), within 0.5 dB, at every symbol rate from
// 2.5 MHz to 100 kHz. Each rate runs at the per-sample SNR that puts
// the post-MRC SNR near 15 dB, where symbol decisions are reliable.
func TestMRCGainTracksSymbolRate(t *testing.T) {
	rd := mustNew(DefaultConfig())
	ss := make([]Stream, 1)
	for _, rate := range []float64{2.5e6, 1e6, 500e3, 250e3, 100e3} {
		tcfg := tag.Config{Mod: tag.QPSK, Coding: fec.Rate12, SymbolRateHz: rate, PreambleChips: 512, ID: 3}
		sps := tcfg.SamplesPerSymbol()
		want := dsp.DB(float64(sps - min(DefaultConfig().ChannelTaps, sps/2)))
		sampleSNR := 15 - want
		var gain float64
		const frames = 3
		for f := 0; f < frames; f++ {
			x, y, packetStart, payload := buildOracleScene(t, int64(100*f)+int64(rate/1e4), tcfg, sampleSNR)
			res, err := decodeTag(rd, ss, x, x, [][]complex128{y}, packetStart, len(x)-packetStart, tcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.FrameOK || !bytes.Equal(res.Payload, payload) {
				t.Fatalf("%.0f kHz frame %d: not delivered", rate/1e3, f)
			}
			gain += res.SNRdB - sampleSNR
		}
		gain /= frames
		t.Logf("%.0f kHz: sps %d, MRC gain %.2f dB, theory %.2f dB", rate/1e3, sps, gain, want)
		if math.Abs(gain-want) > 0.5 {
			t.Errorf("%.0f kHz: MRC gain %.2f dB, want %.2f ± 0.5 dB", rate/1e3, gain, want)
		}
	}
}

// buildOracleScene is one 96-byte frame of tcfg over the controlled
// link of TestMRCGainTracksSymbolRate at per-sample SNR snrDB.
func buildOracleScene(t *testing.T, seed int64, tcfg tag.Config, snrDB float64) (x, y []complex128, packetStart int, payload []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tg, err := tag.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	payload = make([]byte, 96)
	r.Read(payload)
	packetStart = 200
	n := packetStart + tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(len(payload), tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol()
	x = make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Rect(1, 2*math.Pi*r.Float64())
	}
	m, _, err := tg.ModulationSequence(n-packetStart, payload)
	if err != nil {
		t.Fatal(err)
	}
	g := cmplx.Rect(1, 0.7)
	y = make([]complex128, n)
	for i := packetStart; i < n; i++ {
		y[i] = g * x[i] * m[i-packetStart]
	}
	noise := channel.NewAWGN(rng.NewSource(seed), dsp.UnDB(-snrDB))
	noise.AddInPlaceRange(y, packetStart+tag.SilentSamples, n)
	return x, y, packetStart, payload
}
