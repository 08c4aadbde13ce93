package ble

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/rng"
)

func TestWhitenInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	bits := make([]byte, 333)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	twice := whiten(whiten(bits))
	for i := range bits {
		if twice[i] != bits[i] {
			t.Fatalf("whitening not an involution at %d", i)
		}
	}
	// It must actually whiten: a zero stream becomes balanced-ish.
	zeros := make([]byte, 1270)
	ones := 0
	for _, b := range whiten(zeros) {
		ones += int(b)
	}
	if ones < 400 || ones > 870 {
		t.Fatalf("whitened zeros have %d ones of %d", ones, len(zeros))
	}
}

func TestCRC24DetectsErrors(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	bits := make([]byte, 200)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	c1 := crc24(bits)
	bits[57] ^= 1
	c2 := crc24(bits)
	same := true
	for i := range c1 {
		if c1[i] != c2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("CRC-24 missed a single-bit error")
	}
}

func TestGFSKConstantEnvelope(t *testing.T) {
	wave, err := Transmit([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range wave {
		if math.Abs(cmplx.Abs(v)-1) > 1e-9 {
			t.Fatalf("sample %d magnitude %v — GFSK is constant envelope", i, cmplx.Abs(v))
		}
	}
}

func TestCleanRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 10, 80} {
		pdu := make([]byte, n)
		r.Read(pdu)
		wave, err := Transmit(pdu)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Receive(dsp.Concat(dsp.Zeros(137), wave, dsp.Zeros(200)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, pdu) {
			t.Fatalf("n=%d: PDU differs", n)
		}
	}
}

func TestNoisyRoundTrip(t *testing.T) {
	// The channel-select filter rejects out-of-band noise before the
	// discriminator, so the 1 MHz GFSK signal decodes well below the
	// raw-band SNR a bare discriminator would need.
	r := rand.New(rand.NewSource(4))
	src := rng.NewSource(4)
	pdu := make([]byte, 30)
	r.Read(pdu)
	wave, _ := Transmit(pdu)
	noise := channel.NewAWGN(src, dsp.UnDB(-12))
	got, err := Receive(noise.Add(dsp.Concat(dsp.Zeros(100), wave, dsp.Zeros(100))))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pdu) {
		t.Fatal("PDU corrupted at 12 dB raw-band SNR")
	}
}

func TestPhaseRotationTolerated(t *testing.T) {
	// The discriminator differentiates phase, so a constant channel
	// rotation is invisible.
	r := rand.New(rand.NewSource(5))
	pdu := make([]byte, 20)
	r.Read(pdu)
	wave, _ := Transmit(pdu)
	rotated := dsp.Scale(wave, dsp.Phasor(1.234))
	got, err := Receive(dsp.Concat(dsp.Zeros(60), rotated, dsp.Zeros(60)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pdu) {
		t.Fatal("rotation broke the discriminator")
	}
}

func TestReceiveErrors(t *testing.T) {
	if _, err := Receive(dsp.Zeros(100)); err == nil {
		t.Fatal("expected short-stream error")
	}
	noise := channel.NewAWGN(rng.NewSource(6), 1)
	if _, err := Receive(noise.Samples(3000)); err == nil {
		t.Fatal("expected AA-not-found on noise")
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := Transmit(nil); err == nil {
		t.Fatal("expected error for empty PDU")
	}
	if _, err := Transmit(make([]byte, 256)); err == nil {
		t.Fatal("expected error for oversized PDU")
	}
}

func TestAirtime(t *testing.T) {
	// 30-byte PDU: 8+32+240+24 bits at 1 Mbps = 304 µs.
	if at := AirtimeSeconds(30); math.Abs(at-304e-6) > 1e-12 {
		t.Fatalf("airtime %v", at)
	}
}

func TestOccupiedBandwidthNarrow(t *testing.T) {
	pdu := make([]byte, 100)
	rand.New(rand.NewSource(7)).Read(pdu)
	wave, _ := Transmit(pdu)
	psd := dsp.WelchPSD(wave, 128)
	if occ := dsp.OccupiedBandwidth(psd, 0.99); occ > 0.25 {
		t.Fatalf("occupancy %v — BLE is a ~1 MHz signal in a 20 MHz band", occ)
	}
}
