package dsss

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

func TestBarkerAutocorrelation(t *testing.T) {
	// The Barker-11 sequence's aperiodic autocorrelation sidelobes are
	// all ≤ 1 (vs peak 11) — the property that gives chip timing.
	for lag := 1; lag < 11; lag++ {
		var acc float64
		for i := 0; i+lag < 11; i++ {
			acc += barker[i] * barker[i+lag]
		}
		if math.Abs(acc) > 1 {
			t.Fatalf("lag %d sidelobe %v", lag, acc)
		}
	}
}

func TestSymbolWaveStructure(t *testing.T) {
	if len(symbolWave) != 20 {
		t.Fatalf("symbol wave %d samples", len(symbolWave))
	}
	for _, v := range symbolWave {
		if real(v) != 1 && real(v) != -1 || imag(v) != 0 {
			t.Fatalf("chip value %v", v)
		}
	}
}

func TestCleanRoundTrip1M(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 50, 500} {
		psdu := make([]byte, n)
		r.Read(psdu)
		wave, err := Transmit(psdu, DBPSK1M)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Receive(dsp.Concat(dsp.Zeros(333), wave, dsp.Zeros(200)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, psdu) {
			t.Fatalf("n=%d: PSDU differs", n)
		}
	}
}

func TestCleanRoundTrip2M(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	psdu := make([]byte, 200)
	r.Read(psdu)
	wave, err := Transmit(psdu, DQPSK2M)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Receive(dsp.Concat(dsp.Zeros(100), wave, dsp.Zeros(100)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, psdu) {
		t.Fatal("DQPSK PSDU differs")
	}
}

func TestNoisyRoundTripWithSpreadingGain(t *testing.T) {
	// 11-chip spreading (×20 samples): decodes below 0 dB raw SNR.
	r := rand.New(rand.NewSource(3))
	src := rng.NewSource(3)
	psdu := make([]byte, 100)
	r.Read(psdu)
	wave, _ := Transmit(psdu, DBPSK1M)
	noise := channel.NewAWGN(src, dsp.UnDB(3)) // −3 dB SNR
	got, err := Receive(noise.Add(dsp.Concat(dsp.Zeros(100), wave, dsp.Zeros(100))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, psdu) {
		t.Fatal("PSDU corrupted at −3 dB SNR")
	}
}

func TestPhaseRotationTolerated(t *testing.T) {
	// Differential modulation: a constant channel phase cancels.
	r := rand.New(rand.NewSource(4))
	psdu := make([]byte, 60)
	r.Read(psdu)
	wave, _ := Transmit(psdu, DBPSK1M)
	rotated := dsp.Scale(wave, dsp.Phasor(2.5))
	got, err := Receive(dsp.Concat(dsp.Zeros(60), rotated, dsp.Zeros(60)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, psdu) {
		t.Fatal("rotation broke differential decoding")
	}
}

func TestReceiveErrors(t *testing.T) {
	if _, err := Receive(dsp.Zeros(100)); err == nil {
		t.Fatal("expected short-stream error")
	}
	noise := channel.NewAWGN(rng.NewSource(5), 1)
	if _, err := Receive(noise.Samples(8000)); err == nil {
		t.Fatal("expected SFD-not-found on noise")
	}
	psdu := make([]byte, 400)
	wave, _ := Transmit(psdu, DBPSK1M)
	if _, err := Receive(wave[:len(wave)*2/3]); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := Transmit(nil, DBPSK1M); err == nil {
		t.Fatal("expected error for empty PSDU")
	}
	if _, err := Transmit(make([]byte, MaxPayload+1), DBPSK1M); err == nil {
		t.Fatal("expected error for oversized PSDU")
	}
}

func TestAirtimeAndRateNames(t *testing.T) {
	// 100 bytes at 1 Mbps: (128+16+48+800) µs.
	if at := AirtimeSeconds(100, DBPSK1M); math.Abs(at-992e-6) > 1e-12 {
		t.Fatalf("airtime %v", at)
	}
	// 2 Mbps halves only the payload part.
	if at := AirtimeSeconds(100, DQPSK2M); math.Abs(at-592e-6) > 1e-12 {
		t.Fatalf("airtime %v", at)
	}
	if DBPSK1M.String() == DQPSK2M.String() {
		t.Fatal("rate names collide")
	}
}

func TestConstantEnvelope(t *testing.T) {
	wave, _ := Transmit([]byte{0xAB, 0xCD}, DBPSK1M)
	for i, v := range wave {
		m := real(v)*real(v) + imag(v)*imag(v)
		if math.Abs(m-1) > 1e-9 {
			t.Fatalf("sample %d power %v — DSSS/PSK is constant envelope", i, m)
		}
	}
}
