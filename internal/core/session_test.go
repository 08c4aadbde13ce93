package core

import (
	"math"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/fault"
)

func TestSessionDeliversStream(t *testing.T) {
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 8
	s, err := NewSession(cfg, 0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		payload := make([]byte, 64)
		payload[0] = byte(i)
		_, ok, err := s.Send(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("frame %d undelivered at 2 m with retries", i)
		}
	}
	if s.Stats.DeliveryRate() != 1 {
		t.Fatalf("delivery rate %v", s.Stats.DeliveryRate())
	}
	if s.Stats.GoodputBps() <= 0 {
		t.Fatal("goodput not accounted")
	}
	if s.Stats.PacketsSent < s.Stats.FramesOffered {
		t.Fatal("packet accounting broken")
	}
}

func TestSessionARQRescuesMarginalLink(t *testing.T) {
	// At a marginal range/config, retries must deliver more frames
	// than a single shot, because the channel evolves between attempts.
	send := func(retries int) float64 {
		delivered := 0
		const frames = 10
		for i := 0; i < frames; i++ {
			cfg := DefaultLinkConfig(5)
			cfg.Tag.SymbolRateHz = 2e6 // marginal at 5 m
			cfg.Seed = 500 + int64(i)
			s, err := NewSession(cfg, 0.7, retries)
			if err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Send(make([]byte, 32))
			if err != nil {
				continue
			}
			if ok {
				delivered++
			}
		}
		return float64(delivered) / frames
	}
	zero := send(0)
	three := send(3)
	if three < zero {
		t.Fatalf("retries should not hurt: %v vs %v", three, zero)
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(DefaultLinkConfig(1), 0.9, -1); err == nil {
		t.Fatal("expected error for negative retries")
	}
	bad := DefaultLinkConfig(1)
	bad.Tag.SymbolRateHz = 0
	if _, err := NewSession(bad, 0.9, 1); err == nil {
		t.Fatal("expected link config error")
	}
}

func TestEvolverPreservesPowerAndCorrelates(t *testing.T) {
	cfg := DefaultLinkConfig(2)
	cfg.Seed = 9
	link, err := NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := channel.NewEvolver(link.rng, 0.99, link.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	before := link.Scenario.HF.Gain()
	const steps = 500
	var meanGain float64
	for i := 0; i < steps; i++ {
		ev.Step()
		meanGain += link.Scenario.HF.Gain()
	}
	meanGain /= steps
	// The AR(1) is stationary around the initial power: the long-run
	// mean gain stays within the fading spread of the original.
	if meanGain < before/10 || meanGain > before*10 {
		t.Fatalf("mean power drifted: %v vs %v", meanGain, before)
	}
	// Consecutive steps must correlate at rho=0.99: one step changes
	// the channel only slightly.
	snap := append([]complex128{}, link.Scenario.HF...)
	ev.Step()
	var diff, ref float64
	for i := range snap {
		d := link.Scenario.HF[i] - snap[i]
		diff += real(d)*real(d) + imag(d)*imag(d)
		ref += real(snap[i])*real(snap[i]) + imag(snap[i])*imag(snap[i])
	}
	if diff/ref > 0.2 {
		t.Fatalf("one rho=0.99 step moved the channel by %v", diff/ref)
	}
	// Frozen channel: rho=1 must be exactly invariant.
	frozen, err := channel.NewEvolver(link.rng, 1, link.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]complex128{}, link.Scenario.HF...)
	frozen.Step()
	for i := range snapshot {
		if link.Scenario.HF[i] != snapshot[i] {
			t.Fatal("rho=1 should freeze the channel")
		}
	}
}

func TestCoherenceRho(t *testing.T) {
	if got := channel.CoherenceRho(0, 1); got != 1 {
		t.Fatalf("zero interval rho %v", got)
	}
	if got := channel.CoherenceRho(1, 0); got != 0 {
		t.Fatalf("zero coherence rho %v", got)
	}
	mid := channel.CoherenceRho(0.1, 0.5)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("rho %v out of range", mid)
	}
}

// TestSessionARQUnderDroppedACKs pins the ARQ accounting when the
// fault layer eats every ACK: the reader decodes the frame on each
// attempt, but the tag never learns it and burns the whole retry
// budget. Bursty co-channel interference rides along to exercise the
// receive chain the way a hostile deployment would.
func TestSessionARQUnderDroppedACKs(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 11
	cfg.Faults = &fault.Profile{
		ACKDropProb:    1,
		InterfDuty:     0.1,
		InterfPowerDBm: -78,
		InterfBurstUs:  10,
	}
	const maxRetries = 3
	s, err := NewSession(cfg, 1, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	res, delivered, err := s.Send(s.Link().RandomPayload(24))
	if err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("frame cannot complete when every ACK is dropped")
	}
	if res == nil {
		t.Fatal("last attempt's result should be returned")
	}
	st := s.Stats
	if st.FramesOffered != 1 || st.FramesDelivered != 0 {
		t.Fatalf("offered/delivered = %d/%d", st.FramesOffered, st.FramesDelivered)
	}
	if st.PacketsSent != maxRetries+1 {
		t.Fatalf("PacketsSent %d, want the full budget %d", st.PacketsSent, maxRetries+1)
	}
	if st.Retries() != maxRetries {
		t.Fatalf("Retries %d, want %d", st.Retries(), maxRetries)
	}
	// Every decode that did succeed must be accounted as a dropped ACK,
	// and there must have been at least one (1 m decodes easily).
	if st.ACKsDropped < 1 || st.ACKsDropped > st.PacketsSent {
		t.Fatalf("ACKsDropped %d outside [1,%d]", st.ACKsDropped, st.PacketsSent)
	}
	// Airtime accrues per attempt; goodput is zero since nothing was
	// delivered end to end.
	wantAir := float64(st.PacketsSent) * res.TagAirtimeSec
	if math.Abs(st.AirtimeSec-wantAir) > 1e-12 {
		t.Fatalf("AirtimeSec %v, want %d attempts × %v = %v",
			st.AirtimeSec, st.PacketsSent, res.TagAirtimeSec, wantAir)
	}
	if st.PayloadBits != 0 || st.GoodputBps() != 0 {
		t.Fatalf("goodput should be zero: bits=%d goodput=%v", st.PayloadBits, st.GoodputBps())
	}
}

// TestSessionNoWakeConsumesAttempt pins the bugfix for no-wake
// accounting: a tag that sleeps through the wake preamble must consume
// a retry attempt like a CRC failure — the session keeps going and the
// stats stay consistent with Evaluate's loss accounting — instead
// of aborting the whole session with an error.
func TestSessionNoWakeConsumesAttempt(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 21
	cfg.Faults = &fault.Profile{NoWakeProb: 1}
	const maxRetries = 2
	s, err := NewSession(cfg, 1, maxRetries)
	if err != nil {
		t.Fatal(err)
	}
	res, delivered, err := s.Send(s.Link().RandomPayload(24))
	if err != nil {
		t.Fatalf("no-wake must consume an attempt, not abort the session: %v", err)
	}
	if delivered {
		t.Fatal("nothing can deliver when the tag never wakes")
	}
	if res != nil {
		t.Fatal("no attempt decoded, so there is no last result")
	}
	st := s.Stats
	if st.FramesOffered != 1 || st.FramesDelivered != 0 {
		t.Fatalf("offered/delivered = %d/%d", st.FramesOffered, st.FramesDelivered)
	}
	if st.PacketsSent != maxRetries+1 {
		t.Fatalf("PacketsSent %d, want the full budget %d (each no-wake costs an attempt)", st.PacketsSent, maxRetries+1)
	}
	if st.NoWakes != maxRetries+1 {
		t.Fatalf("NoWakes %d, want %d", st.NoWakes, maxRetries+1)
	}
	if st.Retries() != maxRetries {
		t.Fatalf("Retries %d, want %d", st.Retries(), maxRetries)
	}
	// The tag never modulated: zero airtime, zero goodput, no payload.
	if st.AirtimeSec != 0 || st.PayloadBits != 0 || st.GoodputBps() != 0 {
		t.Fatalf("sleeping tag accrued airtime=%v bits=%d goodput=%v", st.AirtimeSec, st.PayloadBits, st.GoodputBps())
	}
}

// TestSessionNoWakePartialLoss checks the session still delivers frames
// around intermittent wake misses and that every miss is visible in the
// NoWakes stat with the attempt counted.
func TestSessionNoWakePartialLoss(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 23
	cfg.Faults = &fault.Profile{NoWakeProb: 0.5}
	s, err := NewSession(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 10
	const bytesPer = 24
	for i := 0; i < frames; i++ {
		if _, _, err := s.Send(s.Link().RandomPayload(bytesPer)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats
	if st.FramesOffered != frames {
		t.Fatalf("FramesOffered %d", st.FramesOffered)
	}
	if st.FramesDelivered == 0 {
		t.Fatal("half-rate wake loss with retries should still deliver frames")
	}
	if st.NoWakes == 0 {
		t.Fatal("p=0.5 over many attempts should miss at least one wake")
	}
	// Attempts split into decodes (which accrue airtime) and no-wakes
	// (which do not); every attempt is a sent packet.
	if st.PacketsSent < st.NoWakes+st.FramesDelivered {
		t.Fatalf("PacketsSent %d below NoWakes+FramesDelivered = %d+%d", st.PacketsSent, st.NoWakes, st.FramesDelivered)
	}
	if st.PayloadBits != 8*bytesPer*st.FramesDelivered {
		t.Fatalf("PayloadBits %d, want %d", st.PayloadBits, 8*bytesPer*st.FramesDelivered)
	}
	if st.AirtimeSec <= 0 {
		t.Fatal("decoded attempts must accrue airtime")
	}
}

// TestSessionDeliveredFlag pins the goodput double-count bugfix over
// the ACK-drop-on-last-attempt and clean-delivery edges: PayloadOK
// says "the reader decoded it", Delivered says "the exchange
// completed" — an ACK-dropped final attempt is the case where they
// must disagree.
func TestSessionDeliveredFlag(t *testing.T) {
	cases := []struct {
		name          string
		faults        *fault.Profile
		maxRetries    int
		wantDelivered bool
		wantPayloadOK bool
	}{
		// Every ACK lost: the reader decodes each attempt but the frame
		// never completes; the last result must not read as delivered.
		{"ack-drop-on-last-attempt", &fault.Profile{ACKDropProb: 1}, 1, false, true},
		// Clean link: both agree.
		{"clean-delivery", nil, 1, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultLinkConfig(1)
			cfg.Seed = 29
			cfg.Faults = tc.faults
			s, err := NewSession(cfg, 1, tc.maxRetries)
			if err != nil {
				t.Fatal(err)
			}
			res, delivered, err := s.Send(s.Link().RandomPayload(24))
			if err != nil {
				t.Fatal(err)
			}
			if delivered != tc.wantDelivered {
				t.Fatalf("delivered = %v, want %v", delivered, tc.wantDelivered)
			}
			if res == nil {
				t.Fatal("decoded attempts must return a result")
			}
			if res.PayloadOK != tc.wantPayloadOK {
				t.Fatalf("PayloadOK = %v, want %v", res.PayloadOK, tc.wantPayloadOK)
			}
			if res.Delivered != tc.wantDelivered {
				t.Fatalf("res.Delivered = %v but the frame delivered = %v: goodput consumers keying off this field double-count", res.Delivered, tc.wantDelivered)
			}
		})
	}
}

// TestSessionRetriesNeverNegative drives Retries() over the accounting
// edges, including a frame that errors out of the pipeline before its
// first transmission (FramesOffered incremented, PacketsSent not).
func TestSessionRetriesNeverNegative(t *testing.T) {
	cases := []struct {
		name string
		st   SessionStats
		want int
	}{
		{"error-on-first-attempt", SessionStats{FramesOffered: 1, PacketsSent: 0}, 0},
		{"error-after-one-clean-frame", SessionStats{FramesOffered: 2, PacketsSent: 1}, 0},
		{"no-retries", SessionStats{FramesOffered: 3, PacketsSent: 3}, 0},
		{"two-retries", SessionStats{FramesOffered: 3, PacketsSent: 5}, 2},
	}
	for _, tc := range cases {
		if got := tc.st.Retries(); got != tc.want {
			t.Errorf("%s: Retries() = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSessionARQPartialACKLoss checks the accounting identities when
// ACKs are lost only sometimes: delivered frames carry their payload
// bits, goodput divides by total airtime (retries included), and each
// dropped ACK shows up as an extra transmission.
func TestSessionARQPartialACKLoss(t *testing.T) {
	cfg := DefaultLinkConfig(1)
	cfg.Seed = 13
	cfg.Faults = &fault.Profile{ACKDropProb: 0.5}
	s, err := NewSession(cfg, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 12
	const bytesPer = 24
	for i := 0; i < frames; i++ {
		if _, _, err := s.Send(s.Link().RandomPayload(bytesPer)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats
	if st.FramesOffered != frames {
		t.Fatalf("FramesOffered %d", st.FramesOffered)
	}
	if st.FramesDelivered == 0 {
		t.Fatal("half-rate ACK loss should still deliver some frames")
	}
	if st.ACKsDropped == 0 {
		t.Fatal("p=0.5 over many attempts should drop at least one ACK")
	}
	if st.PayloadBits != 8*bytesPer*st.FramesDelivered {
		t.Fatalf("PayloadBits %d, want %d", st.PayloadBits, 8*bytesPer*st.FramesDelivered)
	}
	if st.Retries() < st.ACKsDropped-1 {
		// Each dropped ACK forces a retransmission unless it ate the
		// final attempt of a frame's budget.
		t.Fatalf("Retries %d cannot be below ACKsDropped-1 (%d)", st.Retries(), st.ACKsDropped-1)
	}
	if got, want := st.GoodputBps(), float64(st.PayloadBits)/st.AirtimeSec; got != want {
		t.Fatalf("GoodputBps %v, want %v", got, want)
	}
}
