package baseline

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

func TestPriorWiFiWorksAtShortRange(t *testing.T) {
	res := SimulatePriorWiFi(DefaultPriorWiFiConfig(0.3), 2000, 1)
	if res.BER > 0.05 {
		t.Fatalf("BER %v at 0.3 m, prior system should work there", res.BER)
	}
	if res.ThroughputBps < 500 {
		t.Fatalf("throughput %v bps at 0.3 m, expected ≈1 kbps", res.ThroughputBps)
	}
}

func TestPriorWiFiFailsBeyondAMeter(t *testing.T) {
	// Paper Sec. 2: the helper cannot see the RSSI swing once the tag
	// is much past a meter.
	res := SimulatePriorWiFi(DefaultPriorWiFiConfig(3), 2000, 2)
	if res.BER < 0.2 {
		t.Fatalf("BER %v at 3 m — prior system should be broken there", res.BER)
	}
	if res.ThroughputBps > 400 {
		t.Fatalf("throughput %v bps at 3 m should collapse", res.ThroughputBps)
	}
}

func TestPriorWiFiRSSISwingShrinksWithDistance(t *testing.T) {
	near := SimulatePriorWiFi(DefaultPriorWiFiConfig(0.3), 100, 3)
	far := SimulatePriorWiFi(DefaultPriorWiFiConfig(2), 100, 3)
	if far.DeltaRSSIdB >= near.DeltaRSSIdB {
		t.Fatalf("RSSI swing should shrink: %v dB at 0.3 m vs %v dB at 2 m",
			near.DeltaRSSIdB, far.DeltaRSSIdB)
	}
}

func TestBackFiOrdersOfMagnitudeFaster(t *testing.T) {
	// Headline claim: BackFi's 1–6.67 Mbps vs the prior ≈1 kbps is
	// three orders of magnitude. Using our simulated prior throughput:
	prior := SimulatePriorWiFi(DefaultPriorWiFiConfig(0.5), 2000, 4)
	backfiAt1m := 5e6 // established by the core-package sweep tests
	if ratio := backfiAt1m / math.Max(prior.ThroughputBps, 1); ratio < 1000 {
		t.Fatalf("BackFi/prior ratio %v, want ≥ 1000×", ratio)
	}
}

func TestToneSingleTapCancelPerfectOnTone(t *testing.T) {
	// A tone through any LTI channel is one complex gain: single-tap
	// cancellation reaches the noise floor (paper Sec. 3.1.1).
	r := rand.New(rand.NewSource(5))
	src := rng.NewSource(5)
	var tr ToneReader
	tr.ToneFreq = 0.11
	x := tr.Tone(4000, dsp.UnDBm(20))
	henv := channel.RayleighTaps(r, 8, 0.5).Scale(-20)
	noiseW := channel.ThermalNoiseW(20e6, 6)
	y := channel.NewAWGN(src, noiseW).Add(henv.Apply(x))
	_, resid := tr.SingleTapCancel(x, y, 100, 2000)
	if above := dsp.DB(resid / noiseW); above > 1 {
		t.Fatalf("tone residual %v dB above floor", above)
	}
}

func TestToneSingleTapCancelFailsOnWideband(t *testing.T) {
	// The same architecture on a 20 MHz-wide excitation leaves a huge
	// residual — the paper's core motivation (Sec. 3.2).
	resid := WidebandResidualDB(6, 10, -20)
	if resid < 30 {
		t.Fatalf("wideband residual only %v dB above floor; expected tens of dB", resid)
	}
}

func TestToneDecodeRecoversPhases(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	src := rng.NewSource(7)
	var tr ToneReader
	tr.ToneFreq = 0.07
	const sps = 50
	const nsym = 40
	x := tr.Tone(sps*nsym+500, dsp.UnDBm(10))

	// Tag modulation: QPSK phases, first symbol a reference.
	phases := make([]complex128, nsym)
	phases[0] = 1
	for s := 1; s < nsym; s++ {
		phases[s] = dsp.Phasor(float64(r.Intn(4)) * math.Pi / 2)
	}
	hf := channel.RicianTaps(r, 2, 15, 0.5).Scale(-30)
	hb := channel.RicianTaps(r, 2, 15, 0.5).Scale(-30)
	m := make([]complex128, len(x))
	for s := 0; s < nsym; s++ {
		for k := 0; k < sps; k++ {
			m[200+s*sps+k] = phases[s]
		}
	}
	z := hf.Apply(x)
	bs := make([]complex128, len(x))
	for i := range bs {
		bs[i] = z[i] * m[i]
	}
	bs = hb.Apply(bs)
	henv := channel.RayleighTaps(r, 1, 1).Scale(-20) // tone: flat env channel
	y := channel.NewAWGN(src, channel.ThermalNoiseW(20e6, 6)).Add(dsp.Add(henv.Apply(x), bs))

	clean, _ := tr.SingleTapCancel(x, y, 0, 150)
	got := tr.DecodeTonePhases(x, clean, 200, sps, nsym)
	for s := 1; s < nsym; s++ {
		d := dsp.WrapPhase(cmplx.Phase(got[s]) - cmplx.Phase(phases[s]))
		if math.Abs(d) > math.Pi/4 {
			t.Fatalf("symbol %d phase off by %v rad", s, d)
		}
	}
}

func TestBinaryEntropyProperties(t *testing.T) {
	if binaryEntropy(0) != 0 || binaryEntropy(1) != 0 {
		t.Fatal("entropy endpoints should be 0")
	}
	if h := binaryEntropy(0.5); math.Abs(h-1) > 1e-12 {
		t.Fatalf("H(0.5) = %v", h)
	}
	if binaryEntropy(0.1) >= binaryEntropy(0.3) {
		t.Fatal("entropy should increase toward 0.5")
	}
}
