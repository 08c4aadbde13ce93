package zigbee

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

func TestChipSequencesNearOrthogonal(t *testing.T) {
	// The 16 PN sequences differ pairwise in ≥12 of 32 chips — what
	// makes non-coherent despreading work.
	for a := 0; a < 16; a++ {
		for b := a + 1; b < 16; b++ {
			d := bits.OnesCount32(chipTable[a] ^ chipTable[b])
			if d < 12 {
				t.Fatalf("sequences %d,%d differ in only %d chips", a, b, d)
			}
		}
	}
}

func TestTransmitShapeAndPower(t *testing.T) {
	psdu := []byte{1, 2, 3}
	wave, err := Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if p := dsp.Power(wave); math.Abs(p-1) > 0.05 {
		t.Fatalf("waveform power %v", p)
	}
	// Constant-envelope-ish: O-QPSK/MSK has low PAPR (< 1 dB).
	body := wave[SamplesPerChip : len(wave)-2*SamplesPerChip]
	if papr := dsp.PAPRdB(body); papr > 1.5 {
		t.Fatalf("PAPR %v dB too high for O-QPSK", papr)
	}
	// 250 kbps: 3 bytes take (8+2+2+6) symbols at 62.5 ksym/s.
	if at := AirtimeSeconds(3); math.Abs(at-18.0/62500) > 1e-9 {
		t.Fatalf("airtime %v", at)
	}
}

func TestCleanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 20, 127} {
		psdu := make([]byte, n)
		r.Read(psdu)
		wave, err := Transmit(psdu)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Receive(dsp.Concat(dsp.Zeros(777), wave, dsp.Zeros(500)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, psdu) {
			t.Fatalf("n=%d: PSDU differs", n)
		}
	}
}

func TestNoisyRoundTrip(t *testing.T) {
	// DSSS processing gain: decodes far below 0 dB per-sample SNR.
	r := rand.New(rand.NewSource(2))
	src := rng.NewSource(2)
	psdu := make([]byte, 40)
	r.Read(psdu)
	wave, _ := Transmit(psdu)
	noise := channel.NewAWGN(src, dsp.UnDB(5)) // signal power 1 → −5 dB SNR
	rx := noise.Add(dsp.Concat(dsp.Zeros(300), wave, dsp.Zeros(300)))
	got, err := Receive(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, psdu) {
		t.Fatal("PSDU corrupted at −5 dB SNR (32-chip spreading should survive)")
	}
}

func TestChannelPhaseRotationTolerated(t *testing.T) {
	// Non-coherent despreading: an arbitrary channel phase must not
	// break decoding.
	r := rand.New(rand.NewSource(3))
	psdu := make([]byte, 30)
	r.Read(psdu)
	wave, _ := Transmit(psdu)
	rotated := dsp.Scale(wave, dsp.Phasor(2.1))
	got, err := Receive(dsp.Concat(dsp.Zeros(100), rotated, dsp.Zeros(100)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, psdu) {
		t.Fatal("phase rotation broke decoding")
	}
}

func TestReceiveErrors(t *testing.T) {
	if _, err := Receive(dsp.Zeros(100)); err == nil {
		t.Fatal("expected short-stream error")
	}
	noise := channel.NewAWGN(rng.NewSource(4), 1)
	if _, err := Receive(noise.Samples(30000)); err == nil {
		t.Fatal("expected no-preamble error on noise")
	}
	// Truncated payload.
	psdu := make([]byte, 60)
	wave, _ := Transmit(psdu)
	if _, err := Receive(wave[:len(wave)/2]); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := Transmit(nil); err == nil {
		t.Fatal("expected error for empty PSDU")
	}
	if _, err := Transmit(make([]byte, 128)); err == nil {
		t.Fatal("expected error for oversized PSDU")
	}
}

func TestFrameHelpers(t *testing.T) {
	payload := []byte("zigbee sensor frame")
	frame := BuildFrame(payload)
	got, err := CheckFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload differs")
	}
	frame[3] ^= 0xFF
	if _, err := CheckFrame(frame); err == nil {
		t.Fatal("expected FCS error")
	}
	if _, err := CheckFrame([]byte{1}); err == nil {
		t.Fatal("expected short-frame error")
	}
}

func TestOccupiedBandwidthNarrowerThanWiFi(t *testing.T) {
	// A 2 MHz O-QPSK signal occupies ~1/10 of the 20 MHz band.
	psdu := make([]byte, 100)
	wave, _ := Transmit(psdu)
	psd := dsp.WelchPSD(wave, 128)
	occ := dsp.OccupiedBandwidth(psd, 0.99)
	if occ > 0.35 {
		t.Fatalf("occupancy %v — should be a narrowband excitation", occ)
	}
}
