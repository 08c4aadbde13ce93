package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/obs"
)

// marginalTank is a serving tank that runs out of margin within a few
// tens of frames at severity 1, so short tests see real dark episodes.
func marginalTank() *energy.TankConfig {
	tc := DefaultEnergyTank()
	tc.InitialJ = 24e-9
	return &tc
}

// foreverDarkTank starts empty and harvests effectively nothing: the
// tag never wakes, so every poll is a dark poll.
func foreverDarkTank() *energy.TankConfig {
	tc := DefaultEnergyTank()
	tc.InitialJ = 0
	tc.HarvestW = 1e-12
	return &tc
}

// pollSession drives one session like an energy-aware poller: each
// frame is retried until the poll lands while the tag is awake. The
// full response stream — dark answers included — is returned in order.
func pollSession(t *testing.T, c *Client, id string, frames int) []Response {
	t.Helper()
	var stream []Response
	for i := 0; i < frames; i++ {
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				t.Fatalf("session %s frame %d: tag never woke after %d polls", id, i, attempt)
			}
			resp, err := c.Decode(id, sessionPayload(id, i))
			if err != nil && !errors.Is(err, ErrTagDark) {
				t.Fatalf("session %s frame %d: %v", id, i, err)
			}
			stream = append(stream, *resp)
			if resp.Code != CodeTagDark {
				break
			}
		}
	}
	return stream
}

// TestEnergyWakeResumeByteIdentical is the §5k contract: a session
// whose tag goes dark resumes its decode stream byte-identically on
// wake. The subsequence of non-dark responses under the energy
// scheduler must equal, response for response, the stream an
// energy-off server produces from the same seeds — across shard
// counts 1 and 8 and both wire protocols — and the dark/live
// placement itself must be identical in every cell of the matrix.
func TestEnergyWakeResumeByteIdentical(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 11
	sessions := []string{"alpha", "bravo", "charlie"}
	const frames = 28

	run := func(energyOn bool, shards int, proto string) map[string][]Response {
		cfg := Config{Link: link, Shards: shards, MaxRetries: 1}
		if energyOn {
			cfg.Energy = true
			cfg.EnergySeverity = 1
			cfg.EnergyTank = marginalTank()
		}
		s := startServer(t, cfg)
		defer s.Shutdown(context.Background())
		out := map[string][]Response{}
		for _, id := range sessions {
			c, err := DialClient(ClientConfig{Addr: s.Addr(), Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			out[id] = pollSession(t, c, id, frames)
			c.Close()
		}
		return out
	}

	baseline := run(false, 1, "json")
	for _, id := range sessions {
		if len(baseline[id]) != frames {
			t.Fatalf("baseline session %s: %d responses, want %d", id, len(baseline[id]), frames)
		}
	}

	var ref map[string][]Response
	for _, shards := range []int{1, 8} {
		for _, proto := range []string{"json", "binary"} {
			got := run(true, shards, proto)
			for _, id := range sessions {
				stream := got[id]
				// The dark episodes must actually happen, or this test
				// pins nothing.
				dark := 0
				var decoded []Response
				for _, r := range stream {
					if r.Code == CodeTagDark {
						dark++
						if r.Err() != ErrTagDark {
							t.Fatalf("dark response maps to %v", r.Err())
						}
						continue
					}
					decoded = append(decoded, r)
				}
				if dark == 0 {
					t.Fatalf("session %s (%d shards, %s): no dark polls at severity 1", id, shards, proto)
				}
				// Wake resume: the decoded subsequence equals the
				// energy-off stream exactly — Seq gap-free, ARQ intact.
				if len(decoded) != frames {
					t.Fatalf("session %s: %d decoded frames, want %d", id, len(decoded), frames)
				}
				for i := range decoded {
					if decoded[i].Seq != i+1 {
						t.Fatalf("session %s: decoded frame %d has seq %d — dark polls perturbed the sequence", id, i, decoded[i].Seq)
					}
					a, _ := json.Marshal(decoded[i])
					b, _ := json.Marshal(baseline[id][i])
					if string(a) != string(b) {
						t.Fatalf("session %s frame %d diverged from energy-off baseline:\n  energy:   %s\n  baseline: %s", id, i, a, b)
					}
				}
				// Full-stream determinism across the matrix: dark polls
				// land on the same polls in every cell.
				if ref != nil {
					a, _ := json.Marshal(stream)
					b, _ := json.Marshal(ref[id])
					if string(a) != string(b) {
						t.Fatalf("session %s: stream differs between matrix cells (%d shards, %s)", id, shards, proto)
					}
				}
			}
			if ref == nil {
				ref = got
			}
		}
	}
}

// TestEnergyDarkPollsLeaveSessionUntouched pins the isolation half of
// the contract: a permanently dark tag's polls never reach the
// session — no frames offered, no SIC watchdog feed (a watchdog armed
// to trip on any decode stays silent), typed tag_dark counters, and
// exactly one flight transition event per streak.
func TestEnergyDarkPollsLeaveSessionUntouched(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(128)
	s := startServer(t, Config{
		Link:                core.DefaultLinkConfig(1),
		Shards:              1,
		Energy:              true,
		EnergyTank:          foreverDarkTank(),
		WatchdogAfter:       1,
		WatchdogResidualDBm: -200, // any decoded frame would trip
		Obs:                 reg,
		Flight:              flight,
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const polls = 10
	for i := 0; i < polls; i++ {
		resp, err := c.Decode("darkling", sessionPayload("darkling", 0))
		if !errors.Is(err, ErrTagDark) {
			t.Fatalf("poll %d: code %q err %v, want tag_dark", i, resp.Code, err)
		}
		if resp.Seq != 0 || resp.Delivered || resp.Degraded {
			t.Fatalf("poll %d: dark response carries session progress: %+v", i, resp)
		}
	}
	stats, err := c.Stats("darkling")
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesOffered != 0 || stats.PacketsSent != 0 {
		t.Fatalf("dark polls reached the session: %+v", stats)
	}
	if n := flight.Count(obs.FlightWatchdogTrip); n != 0 {
		t.Fatalf("%d watchdog trips from dark polls", n)
	}
	if n := flight.Count(obs.FlightTagDark); n != 1 {
		t.Fatalf("%d tag_dark flight events, want 1 per streak", n)
	}
	asleep := s.m.darkAsleep.Value()
	backoff := s.m.darkBackoff.Value()
	if asleep != 1 || backoff != polls-1 {
		t.Fatalf("dark poll counters asleep=%d backoff=%d, want 1/%d", asleep, backoff, polls-1)
	}
}

// TestEnergyEvictionSparesDarkSessions pins the TTL guard: a
// DARK-but-tracked session outlives the idle sweep while its probe
// backoff is still ramping, and becomes ordinarily evictable once the
// streak reaches the backoff ceiling.
func TestEnergyEvictionSparesDarkSessions(t *testing.T) {
	const ttl = 40 * time.Millisecond
	s := startServer(t, Config{
		Link:       core.DefaultLinkConfig(1),
		Shards:     1,
		Energy:     true,
		EnergyTank: foreverDarkTank(),
		SessionTTL: ttl,
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// "dark" has an active streak (2 polls → Delay(2)=40ms < 2.56s
	// ceiling); "idle" has only asked for stats, so it has state but no
	// streak (and no core session or tank).
	for i := 0; i < 2; i++ {
		if _, err := c.Decode("dark", sessionPayload("dark", 0)); !errors.Is(err, ErrTagDark) {
			t.Fatalf("want tag_dark, got %v", err)
		}
	}
	if _, err := c.Stats("idle"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Evictions() < 1 && time.Now().Before(deadline) {
		time.Sleep(ttl / 2)
	}
	if got := s.Evictions(); got != 1 {
		t.Fatalf("%d evictions, want exactly 1 (idle reclaimed, dark spared)", got)
	}
	if got := s.Sessions(); got != 1 {
		t.Fatalf("%d live sessions, want the spared dark one", got)
	}
	// Push the streak past the backoff ceiling: Delay(k) caps at
	// MaxSec from k=8; the session is then ordinarily evictable.
	for i := 0; i < 7; i++ {
		if _, err := c.Decode("dark", sessionPayload("dark", 0)); !errors.Is(err, ErrTagDark) {
			t.Fatalf("want tag_dark, got %v", err)
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for s.Sessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(ttl / 2)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("%d sessions still live after streak hit the backoff ceiling", got)
	}
}

// TestEnergyConfigValidation pins the configuration fences: malformed
// energy knobs fail loudly, and every feature combination — energy with
// handoff, handoff with a mobility-bearing timeline — is accepted.
func TestEnergyConfigValidation(t *testing.T) {
	wild, err := fault.ParseWildTimeline("0:0,5:0.5")
	if err != nil {
		t.Fatal(err)
	}
	standard, err := fault.ParseTimeline("0:0,5:0.5")
	if err != nil {
		t.Fatal(err)
	}
	badTank := DefaultEnergyTank()
	badTank.CapacityJ = -1
	for name, cfg := range map[string]Config{
		"severity>1":   {EnergySeverity: 1.5},
		"severity NaN": {EnergySeverity: math.NaN()},
		"invalid tank": {Energy: true, EnergyTank: &badTank},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	link := core.DefaultLinkConfig(1)
	for name, cfg := range map[string]Config{
		"energy+handoff":               {Link: link, Energy: true, Handoff: true},
		"handoff+mobility":             {Link: link, Handoff: true, Timeline: wild},
		"handoff+mobility-free":        {Link: link, Handoff: true, Timeline: standard},
		"wild timeline+energy":         {Link: link, Timeline: wild, Energy: true, EnergySeverity: 0.5},
		"energy+handoff+wild timeline": {Link: link, Timeline: wild, Energy: true, Handoff: true},
	} {
		if _, err := NewServer(cfg); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
}

// TestWildTimelineDeterministicAcrossShards extends the §5e matrix to
// the wild axis: a frame-indexed mobility+impairment ramp produces
// byte-identical per-session response streams for shard counts 1
// and 8 — the rho switches land on the same frame ordinals no matter
// how sessions interleave.
func TestWildTimelineDeterministicAcrossShards(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 23
	sessions := []string{"kilo", "lima", "mike", "november"}
	const frames = 10
	run := func(shards int) map[string][]byte {
		tl, err := fault.ParseWildTimeline("0:0,3:0.4,7:0.9")
		if err != nil {
			t.Fatal(err)
		}
		s := startServer(t, Config{
			Link:       link,
			Shards:     shards,
			MaxRetries: 1,
			Timeline:   tl,
		})
		defer s.Shutdown(context.Background())
		return runWorkload(t, s.Addr(), sessions, frames)
	}
	one := run(1)
	eight := run(8)
	for _, id := range sessions {
		if string(one[id]) != string(eight[id]) {
			t.Fatalf("session %s: wild-timeline stream differs between 1 and 8 shards\n1: %s\n8: %s", id, one[id], eight[id])
		}
	}
}
