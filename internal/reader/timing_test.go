package reader

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// buildSceneWithOffset is buildScene with the tag's modulation grid
// shifted late by offset samples (a slow tag comparator clock).
func buildSceneWithOffset(t *testing.T, seed int64, tcfg tag.Config, payloadN, offset int) *scene {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	src := rng.NewSource(seed)
	tg, err := tag.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, payloadN)
	r.Read(payload)

	need := tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadN, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol() + 400 + offset
	txW := dsp.UnDBm(20)
	sigma := math.Sqrt(txW / 2)
	x := make([]complex128, 500+need)
	for i := range x {
		x[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	packetStart := 500
	packetLen := len(x) - packetStart

	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	hf := channel.RicianTaps(r, 3, 10, 0.5).Scale(-30)
	hb := channel.RicianTaps(r, 3, 10, 0.5).Scale(-30)

	m, plan, err := tg.ModulationSequence(packetLen-offset, payload)
	if err != nil {
		t.Fatal(err)
	}
	mFull := make([]complex128, len(x))
	copy(mFull[packetStart+offset:], m) // tag runs `offset` samples late
	z := hf.Apply(x)
	bs := hb.Apply(tag.Backscatter(z, mFull))
	noise := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6))
	y := noise.Add(dsp.Add(henv.Apply(x), bs))
	return &scene{x: x, y: y, packetStart: packetStart, packetLen: packetLen, tcfg: tcfg, plan: plan, payload: payload}
}

func TestTimingSearchRecoversLateTag(t *testing.T) {
	// The tag starts 12 samples late (just over half a preamble-chip's
	// guard region). With the PN timing search the decode succeeds and
	// reports the offset; without it the symbol grid is misaligned.
	tcfg := qpskCfg()
	sc := buildSceneWithOffset(t, 11, tcfg, 60, 12)

	cfg := DefaultConfig()
	cfg.TimingSearch = 16
	withSearch := mustNew(cfg)
	res, err := withSearch.decodeFull(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FrameOK || !bytes.Equal(res.Payload, sc.payload) {
		t.Fatalf("decode with timing search failed (offset found: %d)", res.TimingOffset)
	}
	// The decoder may split the 12-sample delay between the grid shift
	// and the channel estimate's own taps (up to ChannelTaps−1 samples
	// of delay fit inside h_fb), so any combination that covers the
	// majority of the offset is correct.
	if res.TimingOffset < 5 || res.TimingOffset > 16 {
		t.Fatalf("timing offset %d, want 5–16 (12 minus tap absorption)", res.TimingOffset)
	}

	cfg.TimingSearch = 0
	noSearch := mustNew(cfg)
	res0, err := noSearch.decodeFull(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res0.SNRdB >= res.SNRdB {
		t.Fatalf("search should improve SNR on a late tag: %v vs %v", res0.SNRdB, res.SNRdB)
	}
}

func TestTimingSearchStaysPutWhenAligned(t *testing.T) {
	// With an on-time tag the search must not wander: a wrong move
	// would misalign short symbols.
	tcfg := qpskCfg()
	sc := buildScene(t, 12, tcfg, 60, -60)
	res, err := mustNew(DefaultConfig()).decodeFull(sc.x, sc.x, sc.y, sc.packetStart, sc.packetLen, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimingOffset != 0 {
		t.Fatalf("timing offset %d on an aligned tag", res.TimingOffset)
	}
	if !res.FrameOK {
		t.Fatal("aligned decode failed")
	}
}

// TestLateTimingReadsNoStaleScratch decodes tags whose timing search
// moves the symbol grid more than TimingSearch samples late, once on a
// fresh Stream and once on one whose clean/reference buffers hold NaN
// from a "previous frame". The decode must read only samples it
// cancelled and referenced, so the two results are bit-identical. This
// also shows MRC never reads a guard sample, which Decode leaves
// uncomputed. At TimingSearch 2 the search takes all timingPasses
// steps, reaching the end of the stage-1 window.
func TestLateTimingReadsNoStaleScratch(t *testing.T) {
	tcfg := qpskCfg()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, tc := range []struct{ search, fromOffset, toOffset int }{
		{DefaultConfig().TimingSearch, 15, 18},
		{2, 13, 16},
	} {
		cfg := DefaultConfig()
		cfg.TimingSearch = tc.search
		rd := mustNew(cfg)
		for offset := tc.fromOffset; offset <= tc.toOffset; offset++ {
			sc := buildSceneWithOffset(t, 11, tcfg, 60, offset)
			decode := func(s Stream) *Result {
				res, err := decodeTag(rd, []Stream{s}, sc.x, sc.x, [][]complex128{sc.y}, sc.packetStart, sc.packetLen, tcfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fresh := decode(Stream{})
			stale := Stream{clean: make([]complex128, len(sc.y)), ref: make([]complex128, len(sc.y))}
			for i := range stale.clean {
				stale.clean[i], stale.ref[i] = cmplx.NaN(), cmplx.NaN()
			}
			got := decode(stale)
			where := fmt.Sprintf("search %d, offset %d", tc.search, offset)
			if fresh.TimingOffset <= tc.search {
				t.Fatalf("%s: timing moved %d, want more than %d", where, fresh.TimingOffset, tc.search)
			}
			if len(got.SymbolEstimates) != len(fresh.SymbolEstimates) {
				t.Fatalf("%s: %d estimates on stale scratch, %d fresh", where, len(got.SymbolEstimates), len(fresh.SymbolEstimates))
			}
			for i, g := range got.SymbolEstimates {
				if w := fresh.SymbolEstimates[i]; !same(real(g), real(w)) || !same(imag(g), imag(w)) {
					t.Errorf("%s: symbol %d = %v on stale scratch, %v fresh", where, i, g, w)
				}
			}
			if !same(got.SNRdB, fresh.SNRdB) || !bytes.Equal(got.Payload, fresh.Payload) {
				t.Errorf("%s: SNR %v / payload %x on stale scratch, %v / %x fresh", where, got.SNRdB, got.Payload, fresh.SNRdB, fresh.Payload)
			}
		}
	}
}
