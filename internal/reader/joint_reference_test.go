package reader

import (
	"bytes"
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

// decodeJointReference is the full-capture joint decoder DecodeJoint
// replaced, kept verbatim as the reference the windowed decoder is held
// to: a canceller cancelling the whole capture,
// every candidate's reference convolved over the whole capture, a fresh
// frame decoder per layer, and the per-sample modulation rebuilt into a
// new buffer. It still re-checks an unfittable tag every round, and it
// leaves the last layer uncancelled.
func decodeJointReference(r *Reader, x, xTap, y []complex128, packetStart, packetLen int, cfgs []tag.Config) (*JointResult, error) {
	canc, clean, err := cancelFull(r.cfg.SIC, xTap, x, y, packetStart)
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}

	preStart := packetStart + tag.SilentSamples
	jr := &JointResult{Tags: make([]*Result, len(cfgs)), SIC: canc.Report()}

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
		res, used := decodeLayerReference(r, clean, bestRef, packetStart, packetLen, preStart, tcfg)
		res.SIC = jr.SIC
		res.Hfb = bestHfb
		jr.Tags[best] = res
		jr.Order = append(jr.Order, best)

		if len(remaining) > 0 {
			mseq, frameEnd := reconstructModulationReference(res, used, preStart, tcfg)
			for n := preStart; n < frameEnd && n < len(clean); n++ {
				clean[n] -= mseq[n-preStart] * bestRef[n]
			}
		}
		jr.ResidualDBm = append(jr.ResidualDBm, residualDBm(clean, preStart, packetStart+packetLen))
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
		return &Result{PreambleCorr: preCorr}, 0
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
	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg, 0, 0, false)
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

// jointScene is one multi-tag slot as the AP receives it, built the way
// core.MultiTagLink builds it but without the core package: a white
// excitation leaves through the first tag's scenario, every tag
// backscatters its own frame, and the capture stops at the window the
// longest frame occupies.
type jointScene struct {
	x, xAir, y             []complex128
	packetStart, packetLen int
	cfgs                   []tag.Config
	payloads               [][]byte
}

// buildJointScene places tags on a geometric range ladder (each twice as
// far as the previous, from base metres), the layout successive
// cancellation is designed for. Tag IDs are 0..tags-1.
func buildJointScene(t testing.TB, seed int64, tags int, base float64) *jointScene {
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

	scenarios := make([]*channel.Scenario, tags)
	d := base
	for k := range scenarios {
		s, err := channel.NewScenario(channel.DefaultConfig(d), r, src)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[k] = s
		d *= 2
	}
	lead := scenarios[0]
	sigma := math.Sqrt(lead.TxPowerW() / 2)
	sc.x = make([]complex128, hi)
	for i := range sc.x {
		sc.x[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	sc.xAir = lead.Distortion.Apply(sc.x)
	sc.y = lead.HEnv.Apply(sc.xAir)
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
		dsp.AddInPlace(sc.y, s.HB.Apply(tag.Backscatter(s.HF.Apply(sc.xAir), mFull)))
	}
	sc.y = lead.Noise.Add(sc.y)
	return sc
}

// TestDecodeJointMatchesReference holds the windowed joint decoder to
// the full-capture reference on 600 slot captures — 2 tags at 2 m, 2
// tags plus an impostor (a third rung the reader peels like any member;
// to the reader an impostor differs only in that nobody polled it), and
// 3 stacked layers from 1 m: the same payloads, CRC verdicts and
// cancellation order, and the same SIC depth to 0.01 dB.
func TestDecodeJointMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("600 joint decodes against the full-capture reference")
	}
	rd := mustNew(DefaultConfig())
	var s Stream
	layers, decoded, worstDB := 0, 0, 0.0
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
			sc := buildJointScene(t, seed, tc.tags, tc.base)
			cfgs := sc.cfgs
			want, err := decodeJointReference(rd, sc.x, sc.xAir, sc.y, sc.packetStart, sc.packetLen, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rd.DecodeJoint(&s, sc.x, sc.xAir, sc.y, sc.packetStart, sc.packetLen, cfgs)
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
				if g.FrameOK && bytes.Equal(g.Payload, sc.payloads[k]) {
					decoded++
				}
			}
			d := math.Abs(got.SIC.CancellationDB - want.SIC.CancellationDB)
			worstDB = max(worstDB, d)
			if d > 0.01 {
				t.Fatalf("%s seed %d: cancellation %.4f dB, reference %.4f dB", tc.name, seed, got.SIC.CancellationDB, want.SIC.CancellationDB)
			}
		}
	}
	t.Logf("%d layers agree (%d delivered); worst cancellation gap %.2g dB", layers, decoded, worstDB)
	if decoded < layers*3/4 {
		t.Fatalf("only %d of %d layers delivered: the scenes do not exercise successful peeling", decoded, layers)
	}
}

// A tag whose preamble cannot fit the packet is dropped at its first
// check and counted once, however many layers are peeled around it,
// and the layers that do fit decode exactly as the reference does.
func TestDecodeJointUnfittableCountedOnce(t *testing.T) {
	sc := buildJointScene(t, 11, 2, 1)
	huge := sc.cfgs[1]
	huge.ID = 9
	huge.PreambleChips = sc.packetLen/tag.ChipSamples + 1
	cfgs := []tag.Config{sc.cfgs[0], huge, sc.cfgs[1]}

	reg := obs.NewRegistry()
	c := DefaultConfig()
	c.Obs = reg
	rd := mustNew(c)
	got, err := rd.DecodeJoint(new(Stream), sc.x, sc.xAir, sc.y, sc.packetStart, sc.packetLen, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	failed := reg.Counter(obs.MetricStageFailures, "", "stage", "preamble_room").Value()
	if failed != 1 {
		t.Fatalf("preamble_room failures = %d, want 1", failed)
	}
	if got.Tags[1] != nil || len(got.Order) != 2 {
		t.Fatalf("unfittable tag decoded: order %v", got.Order)
	}
	want, err := decodeJointReference(mustNew(DefaultConfig()), sc.x, sc.xAir, sc.y, sc.packetStart, sc.packetLen, cfgs)
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

// DecodeJoint in a reused Stream allocates only its results — per
// layer the Result, its payload, estimates and taps — nothing sized by
// the capture.
func TestDecodeJointSteadyAllocs(t *testing.T) {
	sc := buildJointScene(t, 12, 2, 2)
	rd := mustNew(DefaultConfig())
	var s Stream
	decode := func() {
		if _, err := rd.DecodeJoint(&s, sc.x, sc.xAir, sc.y, sc.packetStart, sc.packetLen, sc.cfgs); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	n := testing.AllocsPerRun(20, decode)
	t.Logf("%v allocs per slot", n)
	if n > 20 {
		t.Fatalf("DecodeJoint: %v allocs per 2-tag slot, want <= 20", n)
	}
}
