package tag

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"backfi/internal/dsp"
	"backfi/internal/fec"
)

func testConfig() Config {
	return Config{Mod: QPSK, Coding: fec.Rate12, SymbolRateHz: 1e6, PreambleChips: DefaultPreambleChips, ID: 1}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.SymbolRateHz = 0
	if bad.Validate() == nil {
		t.Fatal("expected error for zero symbol rate")
	}
	bad = good
	bad.SymbolRateHz = 3e6 // 20e6/3e6 not integer
	if bad.Validate() == nil {
		t.Fatal("expected error for non-divisor symbol rate")
	}
	bad = good
	bad.SymbolRateHz = 20e6 // 1 sample/symbol
	if bad.Validate() == nil {
		t.Fatal("expected error for 1 sample per symbol")
	}
	bad = good
	bad.PreambleChips = 4
	if bad.Validate() == nil {
		t.Fatal("expected error for tiny preamble")
	}
}

func TestConfigDerivedValues(t *testing.T) {
	c := testConfig()
	if c.SamplesPerSymbol() != 20 {
		t.Fatalf("sps = %d", c.SamplesPerSymbol())
	}
	if c.PreambleSamples() != 640 {
		t.Fatalf("preamble samples = %d", c.PreambleSamples())
	}
	// QPSK 1/2 at 1 Msym/s is 1 Mbps (paper Fig. 7 row 1 MHz).
	if c.BitRate() != 1e6 {
		t.Fatalf("bit rate = %v", c.BitRate())
	}
}

func TestBitRatesMatchPaperTable(t *testing.T) {
	// Spot-check throughput cells of paper Fig. 7.
	cases := []struct {
		mod    Modulation
		coding fec.CodeRate
		rs     float64
		want   float64
	}{
		{BPSK, fec.Rate12, 10e3, 5e3},
		{BPSK, fec.Rate23, 2.5e6, 2.5e6 * 2 / 3},
		{QPSK, fec.Rate23, 2e6, 2e6 * 2 * 2 / 3},
		{PSK16, fec.Rate12, 2.5e6, 5e6},
		{PSK16, fec.Rate23, 2.5e6, 2.5e6 * 4 * 2 / 3},
	}
	for _, c := range cases {
		cfg := Config{Mod: c.mod, Coding: c.coding, SymbolRateHz: c.rs, PreambleChips: 32}
		if got := cfg.BitRate(); math.Abs(got-c.want) > 1e-6*c.want {
			t.Fatalf("%v: bit rate %v, want %v", cfg, got, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17, 500} {
		payload := make([]byte, n)
		r.Read(payload)
		got, err := ParseFrame(BuildFrame(payload))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: payload differs", n)
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	if _, err := ParseFrame([]byte{1}); err == nil {
		t.Fatal("expected error for short frame")
	}
	f := BuildFrame([]byte{1, 2, 3})
	f[2] ^= 0xFF
	if _, err := ParseFrame(f); err == nil {
		t.Fatal("expected CRC error")
	}
	// Claimed length beyond buffer.
	g := BuildFrame([]byte{1})
	g[0] = 200
	if _, err := ParseFrame(g); err == nil {
		t.Fatal("expected length error")
	}
}

func TestEncodeDecodeFrameBits(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, mod := range Modulations {
		for _, coding := range []fec.CodeRate{fec.Rate12, fec.Rate23} {
			payload := make([]byte, 60)
			r.Read(payload)
			coded := EncodeFrameBits(payload, coding, mod)
			if len(coded)%mod.BitsPerSymbol() != 0 {
				t.Fatalf("%v/%v: coded bits %d not symbol-aligned", mod, coding, len(coded))
			}
			soft := fec.HardToSoft(coded)
			got, err := DecodeFrameBits(new(fec.Viterbi), soft, coding, FrameInfoBits(len(payload)))
			if err != nil {
				t.Fatalf("%v/%v: %v", mod, coding, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%v/%v: payload differs", mod, coding)
			}
		}
	}
}

func TestSymbolsForPayloadAndCapacityInverse(t *testing.T) {
	for _, mod := range Modulations {
		for _, coding := range []fec.CodeRate{fec.Rate12, fec.Rate23} {
			for _, n := range []int{0, 10, 100} {
				syms := SymbolsForPayload(n, coding, mod)
				got := MaxPayloadBytes(syms, coding, mod)
				if got < n {
					t.Fatalf("%v/%v n=%d: capacity %d of %d symbols", mod, coding, n, got, syms)
				}
				// One fewer symbol must not fit n... only guaranteed when
				// the payload exactly saturates; check weaker property:
				if MaxPayloadBytes(0, coding, mod) >= 0 {
					t.Fatalf("empty symbol budget should not fit a frame")
				}
			}
		}
	}
}

func TestPreambleSequenceDeterministicPerID(t *testing.T) {
	a := PreambleSequence(7, 32)
	b := PreambleSequence(7, 32)
	c := PreambleSequence(8, 32)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("preamble not deterministic")
		}
		if a[i] != c[i] {
			diff++
		}
		if a[i] != 1 && a[i] != -1 {
			t.Fatalf("chip %v not ±1", a[i])
		}
	}
	if diff < 8 {
		t.Fatalf("IDs 7 and 8 share almost the same preamble (%d diffs)", diff)
	}
}

func TestModulationSequenceLayout(t *testing.T) {
	tg, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const packet = 20000
	payload := []byte("hello backfi")
	m, plan, err := tg.ModulationSequence(packet, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != packet {
		t.Fatalf("sequence length %d", len(m))
	}
	// Silent period all zero.
	for i := 0; i < plan.SilentEnd; i++ {
		if m[i] != 0 {
			t.Fatalf("silent period modulated at %d", i)
		}
	}
	// Preamble matches the PN chips.
	pre := PreambleSequence(tg.Cfg.ID, tg.Cfg.PreambleChips)
	for i := plan.SilentEnd; i < plan.PreambleEnd; i++ {
		chip := pre[(i-plan.SilentEnd)/ChipSamples]
		if m[i] != chip {
			t.Fatalf("preamble mismatch at %d", i)
		}
	}
	// Payload symbols hold for SamplesPerSymbol each.
	sps := tg.Cfg.SamplesPerSymbol()
	for s := 0; s < plan.NumSymbols; s++ {
		for k := 0; k < sps; k++ {
			idx := plan.PreambleEnd + s*sps + k
			if m[idx] != plan.Symbols[s] {
				t.Fatalf("symbol %d sample %d mismatch", s, k)
			}
		}
	}
	// After the frame: silent again.
	for i := plan.End(); i < packet; i++ {
		if m[i] != 0 {
			t.Fatalf("tag still modulating at %d", i)
		}
	}
}

func TestModulationSequenceRejectsOversizedPayload(t *testing.T) {
	tg, _ := New(testConfig())
	const packet = 2000 // tiny excitation
	cap := tg.PayloadCapacity(packet)
	if _, _, err := tg.ModulationSequence(packet, make([]byte, cap+1)); err == nil {
		t.Fatal("expected capacity error")
	}
	if _, _, err := tg.ModulationSequence(packet, make([]byte, max(cap, 0))); cap >= 0 && err != nil {
		t.Fatalf("payload at capacity should fit: %v", err)
	}
}

func TestPayloadCapacityGrowsWithPacket(t *testing.T) {
	tg, _ := New(testConfig())
	c1 := tg.PayloadCapacity(10000)
	c2 := tg.PayloadCapacity(40000)
	if c2 <= c1 {
		t.Fatalf("capacity %d → %d should grow", c1, c2)
	}
	if tg.PayloadCapacity(SilentSamples) != -1 {
		t.Fatal("no room should give -1")
	}
}

func TestBackscatterProduct(t *testing.T) {
	z := []complex128{1, 2, complex(0, 1)}
	m := []complex128{complex(0, 1), 0}
	out := Backscatter(z, m)
	if out[0] != complex(0, 1) || out[1] != 0 || out[2] != 0 {
		t.Fatalf("Backscatter = %v", out)
	}
}

func TestWakeSequenceBalancedAndStable(t *testing.T) {
	for id := 0; id < 20; id++ {
		seq := WakeSequence(id)
		if len(seq) != WakeBits {
			t.Fatalf("length %d", len(seq))
		}
		ones := 0
		for _, b := range seq {
			ones += int(b)
		}
		if ones != 8 {
			t.Fatalf("id %d: %d ones", id, ones)
		}
	}
	a, b := WakeSequence(3), WakeSequence(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wake sequence not deterministic")
		}
	}
}

func TestEnergyDetectorFindsWake(t *testing.T) {
	seq := WakeSequence(5)
	amp := dsp.UnDBm(-30) // strong received wake
	wave := WakeWaveform(seq, math.Sqrt(amp))
	rx := dsp.Concat(dsp.Zeros(200), wave, dsp.Zeros(500))
	det := NewEnergyDetector()
	start, ok := det.Detect(rx, seq)
	if !ok {
		t.Fatal("wake not detected")
	}
	want := 200 + len(wave)
	if start < want-WakeBitSamples || start > want+WakeBitSamples {
		t.Fatalf("packet start %d, want ≈%d", start, want)
	}
}

func TestEnergyDetectorRejectsWeakSignal(t *testing.T) {
	seq := WakeSequence(5)
	amp := dsp.UnDBm(-70) // below −41 dBm sensitivity
	wave := WakeWaveform(seq, math.Sqrt(amp))
	det := NewEnergyDetector()
	if _, ok := det.Detect(wave, seq); ok {
		t.Fatal("detected a wake below sensitivity")
	}
}

func TestEnergyDetectorRejectsWrongSequence(t *testing.T) {
	seq := WakeSequence(5)
	other := WakeSequence(11)
	wave := WakeWaveform(other, math.Sqrt(dsp.UnDBm(-20)))
	det := NewEnergyDetector()
	if _, ok := det.Detect(wave, seq); ok {
		t.Fatal("woke on another tag's sequence")
	}
}

func TestEnergyDetectorShortInput(t *testing.T) {
	det := NewEnergyDetector()
	if _, ok := det.Detect(dsp.Zeros(10), WakeSequence(0)); ok {
		t.Fatal("detected in short input")
	}
}

func TestDetectionRange(t *testing.T) {
	det := NewEnergyDetector()
	// 20 dBm TX, 40 dB loss at 1 m, η=2: margin 21 dB → ≈ 11 m.
	got := det.DetectionRangeM(20, 2, 40)
	if got < 10 || got > 13 {
		t.Fatalf("detection range %v m", got)
	}
	if det.DetectionRangeM(-30, 2, 40) != 0 {
		t.Fatal("negative margin should give 0 range")
	}
}

func TestTryWakeEndToEnd(t *testing.T) {
	tg, _ := New(testConfig())
	wave := WakeWaveform(tg.WakeSeq(), math.Sqrt(dsp.UnDBm(-25)))
	rx := dsp.Concat(dsp.Zeros(100), wave, dsp.Zeros(1000))
	if _, ok := tg.TryWake(rx); !ok {
		t.Fatal("TryWake failed")
	}
}
