package reader

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// decodeJointReference is the full-capture joint decoder the windowed
// Decode replaced, kept as the reference Decode is held to on one
// chain: a canceller cancelling the whole capture, every candidate's
// reference convolved over the whole capture, a fresh frame decoder per
// layer, and the per-sample modulation rebuilt into a new buffer. It
// still re-checks an unfittable tag every round, and it leaves the last
// layer uncancelled. Like Decode it runs the PN timing search on the
// first-peeled layer, refitting that layer at each move, and every
// later layer is ranked and decoded on the grid it found; a layer with
// no room for a payload symbol is nil and is not cancelled.
func decodeJointReference(r *Reader, x, xTap, y []complex128, packetStart, packetLen int, cfgs []tag.Config) (*Decoded, error) {
	canc, clean, err := cancelFull(r.cfg.SIC, xTap, x, y, packetStart)
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}

	preStart := packetStart + tag.SilentSamples
	jr := &Decoded{Tags: make([]*Result, len(cfgs)), SIC: canc.Report()}
	offset, searched := 0, false

	remaining := make([]int, 0, len(cfgs))
	for i := range cfgs {
		remaining = append(remaining, i)
	}
	for len(remaining) > 0 {
		best, bestE := -1, 0.0
		var bestHfb, bestRef []complex128
		next := remaining[:0]
		for _, i := range remaining {
			tcfg := cfgs[i]
			if preStart+tcfg.PreambleSamples() > packetStart+packetLen {
				next = append(next, i)
				continue
			}
			pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
			hfb, err := r.estimateHfb(x, clean, preStart, pn)
			if err != nil {
				next = append(next, i)
				continue
			}
			ref := dsp.ConvolveSameInto(nil, x, hfb)
			var e float64
			for n := preStart; n < preStart+tcfg.PreambleSamples(); n++ {
				e += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
			}
			if best == -1 || e > bestE {
				if best != -1 {
					next = append(next, best)
				}
				best, bestE, bestHfb, bestRef = i, e, hfb, ref
			} else {
				next = append(next, i)
			}
		}
		if best == -1 {
			break
		}
		remaining = next

		tcfg := cfgs[best]
		if !searched {
			searched = true
			pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
			for pass := 0; pass < 3; pass++ {
				step := r.searchTiming(clean, bestRef, preStart, pn)
				if step == 0 {
					break
				}
				offset += step
				preStart += step
				if h2, err := r.estimateHfb(x, clean, preStart, pn); err == nil {
					bestHfb = h2
					bestRef = dsp.ConvolveSame(x, bestHfb)
				}
			}
		}
		res, used := decodeLayerReference(r, clean, bestRef, packetStart, packetLen, preStart, tcfg)
		if res == nil {
			continue
		}
		res.SIC = jr.SIC
		res.Hfb = bestHfb
		res.TimingOffset = offset
		jr.Tags[best] = res
		jr.Order = append(jr.Order, best)

		if len(remaining) > 0 {
			mseq, frameEnd := reconstructModulationReference(res, used, preStart, tcfg)
			for n := preStart; n < frameEnd && n < len(clean); n++ {
				clean[n] -= mseq[n-preStart] * bestRef[n]
			}
		}
	}
	return jr, nil
}

func decodeLayerReference(r *Reader, clean, ref []complex128, packetStart, packetLen, preStart int, tcfg tag.Config) (*Result, int) {
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	preEnd := preStart + tcfg.PreambleSamples()
	preCorr := r.preambleCorrelation(clean, ref, preStart, pn)
	sps := tcfg.SamplesPerSymbol()
	guard := min(r.cfg.ChannelTaps, sps/2)
	nAvail := (packetStart + packetLen - preEnd) / sps
	if nAvail <= 0 {
		return nil, 0
	}
	ests := make([]complex128, nAvail)
	for s := 0; s < nAvail; s++ {
		a := preEnd + s*sps + guard
		b := preEnd + (s+1)*sps
		var num complex128
		var den float64
		for n := a; n < b; n++ {
			num += clean[n] * cmplx.Conj(ref[n])
			den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
		}
		if den > 0 {
			ests[s] = num / complex(den, 0)
		}
	}
	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg, 0, false)
	res := &Result{
		Payload:              payload,
		FrameOK:              frameOK,
		SymbolEstimates:      ests,
		PreambleCorr:         preCorr,
		ViterbiCorrectedBits: corrected,
	}
	res.SNRdB = symbolSNRdB(ests[:used], tcfg.Mod)
	return res, used
}

func reconstructModulationReference(res *Result, used, preStart int, tcfg tag.Config) ([]complex128, int) {
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	sps := tcfg.SamplesPerSymbol()
	var symbols []complex128
	if res.FrameOK {
		coded := tag.EncodeFrameBits(res.Payload, tcfg.Coding, tcfg.Mod)
		symbols = tcfg.Mod.MapBits(coded)
	} else {
		used = min(used, len(res.SymbolEstimates))
		symbols = tcfg.Mod.MapBits(tcfg.Mod.DemapHard(res.SymbolEstimates[:used]))
	}
	n := tcfg.PreambleSamples() + len(symbols)*sps
	mseq := make([]complex128, n)
	for c, chip := range pn {
		for k := 0; k < tag.ChipSamples; k++ {
			mseq[c*tag.ChipSamples+k] = chip
		}
	}
	off := tcfg.PreambleSamples()
	for s, sym := range symbols {
		for k := 0; k < sps; k++ {
			mseq[off+s*sps+k] = sym
		}
	}
	return mseq, preStart + n
}

// jointScene is one multi-tag slot as the AP receives it on nrx
// antennas, built the way a K-tag core.Link builds it but without the
// core package: a white excitation leaves through the first tag's
// scenario, every tag backscatters its own frame, and the capture stops
// at the window the longest frame occupies. ys[c] is chain c's capture.
type jointScene struct {
	x, xAir                []complex128
	ys                     [][]complex128
	packetStart, packetLen int
	cfgs                   []tag.Config
	payloads               [][]byte
}

// buildJointScene places tags on a geometric range ladder (each twice as
// far as the previous, from base metres), the layout successive
// cancellation is designed for. Tag IDs are 0..tags-1. Chain 0 is drawn
// first, so its capture does not depend on nrx; every later chain gets
// its own self-interference, backward channels and noise, drawn after
// it.
func buildJointScene(t testing.TB, seed int64, tags int, base float64, nrx int) *jointScene {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	src := rng.NewSource(seed)
	const packetStart = 1200
	sc := &jointScene{packetStart: packetStart}
	need, sps := 0, 0
	for k := 0; k < tags; k++ {
		tcfg := tag.Config{Mod: tag.QPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: tag.DefaultPreambleChips, ID: k}
		payload := make([]byte, 24)
		r.Read(payload)
		sc.cfgs = append(sc.cfgs, tcfg)
		sc.payloads = append(sc.payloads, payload)
		need = max(need, tag.SilentSamples+tcfg.PreambleSamples()+
			tag.SymbolsForPayload(len(payload), tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol())
		sps = max(sps, tcfg.SamplesPerSymbol())
	}
	hi := packetStart + need + sps + 64
	sc.packetLen = hi - packetStart

	placements := func() []*channel.Scenario {
		scs := make([]*channel.Scenario, tags)
		d := base
		for k := range scs {
			s, err := channel.NewScenario(channel.DefaultConfig(d), r, src)
			if err != nil {
				t.Fatal(err)
			}
			scs[k] = s
			d *= 2
		}
		return scs
	}
	scenarios := placements()
	lead := scenarios[0]
	sigma := math.Sqrt(lead.TxPowerW() / 2)
	sc.x = make([]complex128, hi)
	for i := range sc.x {
		sc.x[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	sc.xAir = lead.Distortion.Apply(sc.x)
	y := lead.HEnv.Apply(sc.xAir)
	refls := make([][]complex128, tags)
	for k, s := range scenarios {
		tg, err := tag.New(sc.cfgs[k])
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := tg.ModulationSequence(sc.packetLen, sc.payloads[k])
		if err != nil {
			t.Fatal(err)
		}
		mFull := make([]complex128, hi)
		copy(mFull[packetStart:], m)
		refls[k] = tag.Backscatter(s.HF.Apply(sc.xAir), mFull)
		dsp.AddInPlace(y, s.HB.Apply(refls[k]))
	}
	sc.ys = append(sc.ys, lead.Noise.Add(y))
	for c := 1; c < nrx; c++ {
		chain := placements()
		y := chain[0].HEnv.Apply(sc.xAir)
		for k, s := range chain {
			dsp.AddInPlace(y, s.HB.Apply(refls[k]))
		}
		sc.ys = append(sc.ys, lead.Noise.Add(y))
	}
	return sc
}

// TestDecodeJointMatchesReference holds the windowed decoder to the
// full-capture joint reference on 600 one-chain slot captures — 2 tags
// at 2 m, 2 tags plus an impostor (a third rung the reader peels like
// any member; to the reader an impostor differs only in that nobody
// polled it), and 3 stacked layers from 1 m: the same payloads, CRC
// verdicts, cancellation order and first-layer timing offset, and the
// same SIC depth to 0.01 dB.
func TestDecodeJointMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("600 joint decodes against the full-capture reference")
	}
	rd := mustNew(DefaultConfig())
	ss := make([]Stream, 1)
	layers, decoded, moved, worstDB := 0, 0, 0, 0.0
	for ci, tc := range []struct {
		name string
		tags int
		base float64
	}{
		{"2tags", 2, 2},
		{"2tags+impostor", 3, 2},
		{"3layers", 3, 1},
	} {
		for i := 0; i < 200; i++ {
			seed := int64(100000*(ci+1) + i)
			sc := buildJointScene(t, seed, tc.tags, tc.base, 1)
			cfgs := sc.cfgs
			want, err := decodeJointReference(rd, sc.x, sc.xAir, sc.ys[0], sc.packetStart, sc.packetLen, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Order, want.Order) {
				t.Fatalf("%s seed %d: order %v, reference %v", tc.name, seed, got.Order, want.Order)
			}
			for k := range cfgs {
				g, w := got.Tags[k], want.Tags[k]
				if (g == nil) != (w == nil) {
					t.Fatalf("%s seed %d tag %d: decoded %v, reference %v", tc.name, seed, k, g != nil, w != nil)
				}
				if g == nil {
					continue
				}
				layers++
				if g.FrameOK != w.FrameOK || !bytes.Equal(g.Payload, w.Payload) {
					t.Fatalf("%s seed %d tag %d: FrameOK %v payload %x, reference %v %x", tc.name, seed, k, g.FrameOK, g.Payload, w.FrameOK, w.Payload)
				}
				if g.TimingOffset != w.TimingOffset {
					t.Fatalf("%s seed %d tag %d: timing offset %d, reference %d", tc.name, seed, k, g.TimingOffset, w.TimingOffset)
				}
				if g.FrameOK && bytes.Equal(g.Payload, sc.payloads[k]) {
					decoded++
				}
			}
			if len(got.Order) > 0 && got.Tags[got.Order[0]].TimingOffset != 0 {
				moved++
			}
			d := math.Abs(got.SIC.CancellationDB - want.SIC.CancellationDB)
			worstDB = max(worstDB, d)
			if d > 0.01 {
				t.Fatalf("%s seed %d: cancellation %.4f dB, reference %.4f dB", tc.name, seed, got.SIC.CancellationDB, want.SIC.CancellationDB)
			}
		}
	}
	t.Logf("%d layers agree (%d delivered, grid moved in %d of 600 slots); worst cancellation gap %.2g dB", layers, decoded, moved, worstDB)
	if decoded < layers*3/4 {
		t.Fatalf("only %d of %d layers delivered: the scenes do not exercise successful peeling", decoded, layers)
	}
}

// A tag whose preamble cannot fit the packet is dropped at its first
// check and counted once, however many layers are peeled around it,
// and the layers that do fit decode exactly as the reference does.
func TestDecodeJointUnfittableCountedOnce(t *testing.T) {
	sc := buildJointScene(t, 11, 2, 1, 1)
	huge := sc.cfgs[1]
	huge.ID = 9
	huge.PreambleChips = sc.packetLen/tag.ChipSamples + 1
	cfgs := []tag.Config{sc.cfgs[0], huge, sc.cfgs[1]}

	reg := obs.NewRegistry()
	c := DefaultConfig()
	c.Obs = reg
	rd := mustNew(c)
	got, err := rd.Decode(make([]Stream, 1), NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	failed := reg.Counter(obs.MetricStageFailures, "", "stage", "preamble_room").Value()
	if failed != 1 {
		t.Fatalf("preamble_room failures = %d, want 1", failed)
	}
	if _, err := got.Tag(1); got.Tags[1] != nil || len(got.Order) != 2 || !errors.Is(err, ErrUndecodable) {
		t.Fatalf("unfittable tag decoded: order %v, error %v", got.Order, err)
	}
	want, err := decodeJointReference(mustNew(DefaultConfig()), sc.x, sc.xAir, sc.ys[0], sc.packetStart, sc.packetLen, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Order, want.Order) {
		t.Fatalf("order %v, reference %v", got.Order, want.Order)
	}
	for _, k := range got.Order {
		if !got.Tags[k].FrameOK || !bytes.Equal(got.Tags[k].Payload, want.Tags[k].Payload) {
			t.Fatalf("tag %d: decode differs from the reference", k)
		}
	}
}
