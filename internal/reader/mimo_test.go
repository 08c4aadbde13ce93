package reader

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// mimoScene is one tag frame as nrx AP antennas receive it, built the
// way core's multi-antenna link builds it but without the core package:
// a white excitation leaves with the first placement's transmit
// distortion and forward channel; every receive chain sees its own
// placement's self-interference and backward channel and its own noise;
// the capture stops at the window the frame occupies.
type mimoScene struct {
	x, xAir                []complex128
	ys                     [][]complex128
	packetStart, packetLen int
	tcfg                   tag.Config
	payload                []byte
}

func buildMIMOScene(t testing.TB, seed int64, nrx int, distanceM float64) *mimoScene {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	src := rng.NewSource(seed)
	const packetStart = 1200
	tcfg := qpskCfg()
	payload := make([]byte, 24)
	r.Read(payload)
	sps := tcfg.SamplesPerSymbol()
	hi := packetStart + tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(len(payload), tcfg.Coding, tcfg.Mod)*sps + sps + 64

	scs := make([]*channel.Scenario, nrx)
	for c := range scs {
		s, err := channel.NewScenario(channel.DefaultConfig(distanceM), r, src)
		if err != nil {
			t.Fatal(err)
		}
		scs[c] = s
	}
	lead := scs[0]
	sigma := math.Sqrt(lead.TxPowerW() / 2)
	sc := &mimoScene{packetStart: packetStart, packetLen: hi - packetStart, tcfg: tcfg, payload: payload}
	sc.x = make([]complex128, hi)
	for i := range sc.x {
		sc.x[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	sc.xAir = lead.Distortion.Apply(sc.x)
	tg, err := tag.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := tg.ModulationSequence(sc.packetLen, payload)
	if err != nil {
		t.Fatal(err)
	}
	mFull := make([]complex128, hi)
	copy(mFull[packetStart:], m)
	refl := tag.Backscatter(lead.HF.Apply(sc.xAir), mFull)
	for _, s := range scs {
		sc.ys = append(sc.ys, lead.Noise.Add(dsp.Add(s.HEnv.Apply(sc.xAir), s.HB.Apply(refl))))
	}
	return sc
}

func (sc *mimoScene) decode(rd *Reader) (*Result, error) {
	return decodeTag(rd, make([]Stream, len(sc.ys)), sc.x, sc.xAir, sc.ys, sc.packetStart, sc.packetLen, sc.tcfg)
}

func TestDecodeMultiRecoversPayload(t *testing.T) {
	sc := buildMIMOScene(t, 1, 2, 2)
	res, err := sc.decode(mustNew(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.FrameOK || !bytes.Equal(res.Payload, sc.payload) {
		t.Fatal("two-antenna decode failed")
	}
	if len(res.PerAntennaSIC) != 2 || len(res.PerAntennaSNRdB) != 2 {
		t.Fatal("per-antenna diagnostics missing")
	}
	// Joint SNR at least matches the best single chain minus noise.
	best := math.Max(res.PerAntennaSNRdB[0], res.PerAntennaSNRdB[1])
	if res.SNRdB < best-3 {
		t.Fatalf("joint SNR %v far below best chain %v", res.SNRdB, best)
	}
}

// TestDecodeMultiValidation pins the argument checks of the one
// decoder: they are errors, while a tag that cannot be attempted on the
// capture is a nil layer whose error wraps ErrUndecodable.
func TestDecodeMultiValidation(t *testing.T) {
	sc := buildMIMOScene(t, 2, 2, 2)
	rd := mustNew(DefaultConfig())
	ss := make([]Stream, 2)
	cfgs := []tag.Config{sc.tcfg}
	if _, err := rd.Decode(nil, NewExcitation(sc.x), sc.xAir, nil, sc.packetStart, sc.packetLen, cfgs); err == nil {
		t.Fatal("expected error for no antennas")
	}
	if _, err := rd.Decode(ss[:1], NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, cfgs); err == nil {
		t.Fatal("expected error for a stream per chain missing")
	}
	short := [][]complex128{sc.ys[0], sc.ys[1][:10]}
	if _, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, short, sc.packetStart, sc.packetLen, cfgs); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, len(sc.x), cfgs); err == nil {
		t.Fatal("expected error for a packet past the capture")
	}
	if _, err := rd.Decode(ss, NewExcitation(sc.x[:len(sc.x)-1]), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, cfgs); err == nil {
		t.Fatal("expected error for an excitation shorter than the captures")
	}
	if _, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, -1, sc.packetLen, cfgs); err == nil {
		t.Fatal("expected error for a negative packet start")
	}
	bad := sc.tcfg
	bad.SymbolRateHz = 0
	if _, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, []tag.Config{sc.tcfg, bad}); err == nil {
		t.Fatal("expected tag config error")
	}
	if _, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, sc.packetLen, nil); err == nil {
		t.Fatal("expected error for zero tags")
	}
	d, err := rd.Decode(ss, NewExcitation(sc.x), sc.xAir, sc.ys, sc.packetStart, tag.SilentSamples+10, cfgs)
	if err != nil {
		t.Fatalf("too-short packet: %v, want a nil layer", err)
	}
	if _, err := d.Tag(0); d.Tags[0] != nil || len(d.Order) != 0 || !errors.Is(err, ErrUndecodable) {
		t.Fatalf("too-short packet: layer %v, order %v, error %v", d.Tags[0], d.Order, err)
	}
}

// TestDecodeMultiMatchesReference holds the windowed multi-chain
// Decode to the full-capture reference on 300 captures — 2 and 4
// antennas from 3 to 7 m: the same payloads and CRC verdicts, and the
// same joint SNR to 0.1 dB.
func TestDecodeMultiMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("300 multi-antenna decodes against the full-capture reference")
	}
	rd := mustNew(DefaultConfig())
	ss := make([]Stream, 4)
	captures, delivered, worstDB := 0, 0, 0.0
	for _, nrx := range []int{2, 4} {
		for _, d := range []float64{3, 4, 5, 6, 7} {
			for i := 0; i < 30; i++ {
				seed := int64(1000*nrx) + int64(100*d) + int64(i)
				sc := buildMIMOScene(t, seed, nrx, d)
				want, err := decodeMultiReference(rd, sc.x, sc.xAir, sc.ys, sc.packetStart, sc.packetLen, sc.tcfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decodeTag(rd, ss[:nrx], sc.x, sc.xAir, sc.ys, sc.packetStart, sc.packetLen, sc.tcfg)
				if err != nil {
					t.Fatal(err)
				}
				captures++
				if got.FrameOK != want.FrameOK || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("%d rx %.0f m seed %d: FrameOK %v payload %x, reference %v %x", nrx, d, seed, got.FrameOK, got.Payload, want.FrameOK, want.Payload)
				}
				if got.FrameOK && bytes.Equal(got.Payload, sc.payload) {
					delivered++
				}
				diff := math.Abs(got.SNRdB - want.SNRdB)
				worstDB = max(worstDB, diff)
				if diff > 0.1 {
					t.Fatalf("%d rx %.0f m seed %d: joint SNR %.3f dB, reference %.3f dB", nrx, d, seed, got.SNRdB, want.SNRdB)
				}
			}
		}
	}
	t.Logf("%d captures agree (%d delivered); worst joint SNR gap %.2g dB", captures, delivered, worstDB)
	if delivered == 0 || delivered == captures {
		t.Fatalf("%d of %d delivered: the captures must exercise both verdicts", delivered, captures)
	}
}
