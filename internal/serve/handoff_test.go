package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"backfi/internal/adapt"
	"backfi/internal/core"
	"backfi/internal/fault"
)

// handoffLink is the template the handoff tests share: far enough for
// retries and controller activity, seeded for reproducibility.
func handoffLink() core.LinkConfig {
	link := core.DefaultLinkConfig(2.5)
	link.Seed = 11
	return link
}

// decodeStream drives frames [from, to) of one session through the
// client and returns the JSON-marshalled responses.
func decodeStream(t *testing.T, c *Client, id string, from, to int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := from; i < to; i++ {
		resp, err := c.Decode(id, sessionPayload(id, i))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// TestHandoffResumeByteIdentical is the cluster migration contract
// (DESIGN.md §5j), end to end over the wire: a session decodes `cut`
// frames on an origin node, the client installs the origin's last
// snapshot on a survivor node, and the survivor's responses for the
// remaining frames are byte-identical to an uninterrupted control node
// — across both wire protocols, fixed, adaptive and faulted sessions,
// and scripted fault timelines straddling the cut — one with two steps
// on one frame, which switch the profile (and the fault epoch the
// survivor derives from the cursor) once.
func TestHandoffResumeByteIdentical(t *testing.T) {
	timeline, err := fault.NewTimeline([]fault.TimelineStep{
		{Frame: 2, Severity: 0.5},
		{Frame: 7, Severity: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := fault.NewTimeline([]fault.TimelineStep{
		{Frame: 1, Severity: 0.5}, {Frame: 1, Severity: 0.3}, {Frame: 3, Severity: 0.2}, {Frame: 7, Severity: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		proto string
		mut   func(*Config)
	}{
		{"fixed-json", "json", func(*Config) {}},
		{"fixed-binary", "binary", func(*Config) {}},
		{"faulted-binary", "binary", func(c *Config) {
			p := fault.Standard(0.3)
			c.Link.Faults = &p
		}},
		{"adaptive-binary", "binary", func(c *Config) {
			c.Adapt = true
			c.AdaptMinSymbolRateHz = 250e3
		}},
		{"timeline-json", "json", func(c *Config) { c.Timeline = timeline }},
		{"timeline-shared-frame-binary", "binary", func(c *Config) { c.Timeline = shared }},
	}
	const frames, cut = 10, 4
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Link: handoffLink(), Shards: 2, MaxRetries: 2, Handoff: true}
			tc.mut(&cfg)
			id := "migrant-" + tc.name

			control := startServer(t, cfg)
			cc, err := DialClient(ClientConfig{Addr: control.Addr(), Proto: tc.proto})
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			want := decodeStream(t, cc, id, 0, frames)

			origin := startServer(t, cfg)
			oc, err := DialClient(ClientConfig{Addr: origin.Addr(), Proto: tc.proto})
			if err != nil {
				t.Fatal(err)
			}
			defer oc.Close()
			got := decodeStream(t, oc, id, 0, cut)
			snap := oc.LastHandoff(id)
			if snap == nil {
				t.Fatal("no handoff snapshot cached after decodes")
			}
			if snap.Seq != cut || snap.Version != HandoffVersion {
				t.Fatalf("snapshot = %+v, want seq %d version %d", snap, cut, HandoffVersion)
			}
			_ = origin.Shutdown(context.Background())

			survivor := startServer(t, cfg)
			sc, err := DialClient(ClientConfig{Addr: survivor.Addr(), Proto: tc.proto})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			if _, err := sc.InstallHandoff(id, snap); err != nil {
				t.Fatalf("install: %v", err)
			}
			got = append(got, decodeStream(t, sc, id, cut, frames)...)

			if len(got) != len(want) {
				t.Fatalf("stream length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if string(got[i]) != string(want[i]) {
					t.Fatalf("frame %d diverged after handoff:\ngot  %s\nwant %s", i, got[i], want[i])
				}
			}
			cstats, err := cc.Stats(id)
			if err != nil {
				t.Fatal(err)
			}
			sstats, err := sc.Stats(id)
			if err != nil {
				t.Fatal(err)
			}
			if *cstats != *sstats {
				t.Fatalf("final stats diverged:\ngot  %+v\nwant %+v", sstats, cstats)
			}
		})
	}
}

// TestHandoffSeqContinuity pins the no-duplicate / no-loss guarantee
// the chaos harness asserts at scale: the survivor continues Seq
// exactly where the origin stopped.
func TestHandoffSeqContinuity(t *testing.T) {
	cfg := Config{Link: core.DefaultLinkConfig(1), Shards: 1, Handoff: true}
	origin := startServer(t, cfg)
	oc, err := Dial(origin.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	for i := 0; i < 3; i++ {
		if _, err := oc.Decode("seq", sessionPayload("seq", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := oc.LastHandoff("seq")
	if snap == nil || snap.Seq != 3 {
		t.Fatalf("snapshot %+v, want seq 3", snap)
	}

	survivor := startServer(t, cfg)
	sc, err := Dial(survivor.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	resp, err := sc.InstallHandoff("seq", snap)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 3 {
		t.Fatalf("install Seq = %d, want 3", resp.Seq)
	}
	next, err := sc.Decode("seq", sessionPayload("seq", 3))
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq != 4 {
		t.Fatalf("first post-handoff Seq = %d, want 4", next.Seq)
	}
}

// TestHandoffRejections pins the typed install-time failures: handoff
// off, version skew, controller-presence mismatch, timeline mismatch,
// and malformed counters — each a CodeBadRequest, never a panic or a
// half-installed session.
func TestHandoffRejections(t *testing.T) {
	good := func() *HandoffState {
		return &HandoffState{Version: HandoffVersion, Attempts: 1,
			Seq: 1, Stats: SessionStats{SessionStats: core.SessionStats{FramesOffered: 1, PacketsSent: 1}}}
	}

	t.Run("disabled", func(t *testing.T) {
		s := startServer(t, Config{Link: core.DefaultLinkConfig(1), Shards: 1})
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.InstallHandoff("x", good()); !isBadRequest(err) {
			t.Fatalf("handoff on non-handoff server: %v", err)
		}
	})

	s := startServer(t, Config{Link: core.DefaultLinkConfig(1), Shards: 1, Handoff: true})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	t.Run("version-skew", func(t *testing.T) {
		hs := good()
		hs.Version = HandoffVersion + 1
		if _, err := c.InstallHandoff("x", hs); !isBadRequest(err) {
			t.Fatalf("version skew: %v", err)
		}
	})
	t.Run("missing-state", func(t *testing.T) {
		if _, err := c.InstallHandoff("x", nil); !isBadRequest(err) {
			t.Fatalf("nil state: %v", err)
		}
	})
	t.Run("negative-counter", func(t *testing.T) {
		hs := good()
		hs.Attempts = -1
		if _, err := c.InstallHandoff("x", hs); !isBadRequest(err) {
			t.Fatalf("negative attempts: %v", err)
		}
	})
	t.Run("seq-beyond-frames", func(t *testing.T) {
		hs := good()
		hs.Seq = hs.Stats.FramesOffered + 1
		if _, err := c.InstallHandoff("x", hs); !isBadRequest(err) {
			t.Fatalf("seq beyond frames: %v", err)
		}
	})
	t.Run("controller-mismatch", func(t *testing.T) {
		hs := good()
		hs.Ctrl = &adapt.State{Index: 1, Ceiling: 2}
		if _, err := c.InstallHandoff("x", hs); !isBadRequest(err) {
			t.Fatalf("controller state on non-adaptive node: %v", err)
		}
	})
	t.Run("timeline-mismatch", func(t *testing.T) {
		hs := good()
		hs.TimelineCur = 3 // node runs no timeline; cursor must be 0
		if _, err := c.InstallHandoff("x", hs); !isBadRequest(err) {
			t.Fatalf("timeline cursor mismatch: %v", err)
		}
	})
	// The session still serves after every rejection.
	if _, err := c.Decode("x", sessionPayload("x", 0)); err != nil {
		t.Fatalf("session unusable after rejected handoffs: %v", err)
	}
}

func isBadRequest(err error) bool { return errors.Is(err, ErrBadRequest) }

// TestHandoffInstallBoundsReplay is the untrusted-snapshot regression:
// a forged snapshot without this placement's taps, and counters no
// session under this node's retry budget could produce, are refused
// fast as bad_request on either protocol — and the shard's other
// sessions keep decoding.
func TestHandoffInstallBoundsReplay(t *testing.T) {
	const huge = 1<<31 - 1
	for _, proto := range []string{"json", "binary"} {
		t.Run(proto, func(t *testing.T) {
			s := startServer(t, Config{Link: core.DefaultLinkConfig(1), Shards: 1, MaxRetries: 2, Handoff: true})
			c, err := DialClient(ClientConfig{Addr: s.Addr(), Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Decode("bystander", sessionPayload("bystander", 0)); err != nil {
				t.Fatal(err)
			}
			for name, hs := range map[string]*HandoffState{
				"forged-attempts": {Version: HandoffVersion, Attempts: huge,
					Stats: SessionStats{SessionStats: core.SessionStats{FramesOffered: huge, PacketsSent: huge}}},
				"attempts-beyond-retry-budget": {Version: HandoffVersion, Attempts: 10,
					Stats: SessionStats{SessionStats: core.SessionStats{FramesOffered: 3, PacketsSent: 3}}},
				"packets-beyond-attempts": {Version: HandoffVersion, Attempts: 2,
					Stats: SessionStats{SessionStats: core.SessionStats{FramesOffered: 2, PacketsSent: 3}}},
			} {
				start := time.Now()
				_, err := c.InstallHandoff("victim", hs)
				if !isBadRequest(err) {
					t.Fatalf("%s: install = %v, want bad_request", name, err)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Fatalf("%s: rejection took %v", name, d)
				}
			}
			if _, err := c.Decode("bystander", sessionPayload("bystander", 1)); err != nil {
				t.Fatalf("shard stopped serving after rejected installs: %v", err)
			}
		})
	}
}

// TestHandoffNotAttachedWithoutConfig pins that a non-handoff server's
// decode responses stay byte-identical to the pre-§5j wire: no
// snapshot field, either protocol.
func TestHandoffNotAttachedWithoutConfig(t *testing.T) {
	s := startServer(t, Config{Link: core.DefaultLinkConfig(1), Shards: 1})
	for _, proto := range []string{"json", "binary"} {
		c, err := DialClient(ClientConfig{Addr: s.Addr(), Proto: proto})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Decode("plain", sessionPayload("plain", 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Handoff != nil {
			t.Fatalf("%s: decode response carries a snapshot without Config.Handoff", proto)
		}
		if c.LastHandoff("plain") != nil {
			t.Fatalf("%s: client cached a snapshot that never arrived", proto)
		}
		c.Close()
	}
}

// TestClientSessionEviction is the client-side churn regression
// (DESIGN.md §5j): per-session bookkeeping (breaker, trace index,
// snapshot) is reclaimed by the SessionTTL sweep, so churned ids do
// not grow the client without bound.
func TestClientSessionEviction(t *testing.T) {
	s := startServer(t, Config{Link: core.DefaultLinkConfig(1), Shards: 1})
	clock := time.Unix(1000, 0)
	c, _ := dialClient(t, s.Addr(), ClientConfig{
		BreakerThreshold: 3,
		SessionTTL:       time.Second,
	})
	c.now = func() time.Time { return clock }

	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("churn-%d", i)
		if _, err := c.Decode(id, sessionPayload(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.TrackedSessions(); n != 8 {
		t.Fatalf("tracked %d sessions, want 8", n)
	}
	// Everything idles past the TTL; the next call's sweep reclaims all
	// eight and tracks only itself.
	clock = clock.Add(2 * time.Second)
	if _, err := c.Decode("fresh", sessionPayload("fresh", 0)); err != nil {
		t.Fatal(err)
	}
	if n := c.TrackedSessions(); n != 1 {
		t.Fatalf("tracked %d sessions after sweep, want 1", n)
	}
	// A still-active session survives the sweep: keep touching it while
	// others expire.
	clock = clock.Add(time.Second)
	if _, err := c.Decode("fresh", sessionPayload("fresh", 1)); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(600 * time.Millisecond)
	if _, err := c.Decode("fresh", sessionPayload("fresh", 2)); err != nil {
		t.Fatal(err)
	}
	if n := c.TrackedSessions(); n != 1 {
		t.Fatalf("active session evicted: tracked %d", n)
	}
}

// TestHandoffInstallAnyAge pins O(1) restore end to end: a snapshot
// claiming 2⁴⁰ attempts and frames with consistent counters installs,
// and the next decode answers with the next Seq, on either protocol.
func TestHandoffInstallAnyAge(t *testing.T) {
	const age = 1 << 40
	cfg := Config{Link: handoffLink(), Shards: 1, MaxRetries: 2, Handoff: true}
	for _, proto := range []string{"json", "binary"} {
		t.Run(proto, func(t *testing.T) {
			origin := startServer(t, cfg)
			oc, err := DialClient(ClientConfig{Addr: origin.Addr(), Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer oc.Close()
			decodeStream(t, oc, "old", 0, 3)
			snap := *oc.LastHandoff("old")
			snap.Attempts, snap.Stats.FramesOffered, snap.Stats.PacketsSent = age, age, age

			survivor := startServer(t, cfg)
			sc, err := DialClient(ClientConfig{Addr: survivor.Addr(), Proto: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			start := time.Now()
			if _, err := sc.InstallHandoff("old", &snap); err != nil {
				t.Fatalf("install at 2^40 attempts: %v", err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("install took %v", d)
			}
			resp, err := sc.Decode("old", sessionPayload("old", 3))
			if err != nil {
				t.Fatal(err)
			}
			if resp.Seq != snap.Seq+1 {
				t.Fatalf("first decode after install Seq = %d, want %d", resp.Seq, snap.Seq+1)
			}
			if got := resp.Handoff.Attempts; got <= age {
				t.Fatalf("post-install snapshot attempts = %d, want > %d", got, age)
			}
		})
	}
}

// energyMobilityConfig is a faulted, adaptive, energy-gated node under
// a walking-speed mobility timeline, with a cold-started tank starved
// enough to go dark within a few dozen polls.
func energyMobilityConfig(t testing.TB, shards int) Config {
	t.Helper()
	wild, err := fault.ParseWildTimeline("0:0,4:0.4,9:0.8")
	if err != nil {
		t.Fatal(err)
	}
	tank := DefaultEnergyTank()
	tank.InitialJ = 0.6 * tank.CapacityJ
	link := core.DefaultLinkConfig(1)
	link.Seed = 5
	return Config{Link: link, Shards: shards, MaxRetries: 1, Handoff: true,
		Adapt: true, AdaptMinSymbolRateHz: 500e3, Timeline: wild,
		Energy: true, EnergySeverity: 1, EnergyTank: &tank}
}

// pollStream offers polls [from, to) of one session — poll i carries
// payload i whether or not the tag is awake — and returns each answer,
// decoded or tag_dark, JSON-marshalled with its snapshot.
func pollStream(t *testing.T, c *Client, id string, from, to int) [][]byte {
	t.Helper()
	var out [][]byte
	for i := from; i < to; i++ {
		resp, err := c.Decode(id, sessionPayload(id, i))
		if err != nil && !errors.Is(err, ErrTagDark) {
			t.Fatalf("poll %d: %v", i, err)
		}
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// TestHandoffEnergyMobilityResume is the portable-state contract with
// every feature on: an energy-gated, adaptive session under a mobility
// timeline, handed off mid-run, right after a mobility step and in the
// middle of a dark streak, resumes byte-identically — answers and
// snapshots — with an uninterrupted control on shards {1, 8} × proto
// {json, binary}.
func TestHandoffEnergyMobilityResume(t *testing.T) {
	const polls, id = 40, "roamer"
	control := startServer(t, energyMobilityConfig(t, 1))
	cc, err := DialClient(ClientConfig{Addr: control.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	want := pollStream(t, cc, id, 0, polls)

	// Pick the cuts from the control stream: install before poll cut.
	cuts := map[string]int{"mid-run": polls / 2}
	for i := 1; i < polls; i++ {
		var prev, cur Response
		if err := json.Unmarshal(want[i-1], &prev); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want[i], &cur); err != nil {
			t.Fatal(err)
		}
		if _, ok := cuts["after-mobility-step"]; !ok && cur.Handoff.TimelineCur >= 2 && cur.Handoff.TimelineCur > prev.Handoff.TimelineCur {
			cuts["after-mobility-step"] = i + 1
		}
		if _, ok := cuts["mid-dark-streak"]; !ok && prev.Code == CodeTagDark && cur.Code == CodeTagDark {
			cuts["mid-dark-streak"] = i
		}
	}
	if len(cuts) != 3 {
		t.Fatalf("control stream lacks a mobility step or a dark streak: cuts %v", cuts)
	}

	for _, shards := range []int{1, 8} {
		for _, proto := range []string{"json", "binary"} {
			for name, cut := range cuts {
				t.Run(fmt.Sprintf("shards%d-%s-%s", shards, proto, name), func(t *testing.T) {
					origin := startServer(t, energyMobilityConfig(t, shards))
					oc, err := DialClient(ClientConfig{Addr: origin.Addr(), Proto: proto})
					if err != nil {
						t.Fatal(err)
					}
					defer oc.Close()
					got := pollStream(t, oc, id, 0, cut)
					snap := oc.LastHandoff(id)
					_ = origin.Shutdown(context.Background())

					survivor := startServer(t, energyMobilityConfig(t, shards))
					sc, err := DialClient(ClientConfig{Addr: survivor.Addr(), Proto: proto})
					if err != nil {
						t.Fatal(err)
					}
					defer sc.Close()
					if _, err := sc.InstallHandoff(id, snap); err != nil {
						t.Fatalf("install before poll %d: %v", cut, err)
					}
					got = append(got, pollStream(t, sc, id, cut, polls)...)
					for i := range want {
						if string(got[i]) != string(want[i]) {
							t.Fatalf("poll %d diverged after handoff before poll %d:\ngot  %s\nwant %s", i, cut, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// BenchmarkHandoffInstall times one install on the shard worker for a
// young and an ancient snapshot of the same energy-gated, adaptive
// session under a mobility timeline. Restore copies state, so the two
// cost the same (session construction dominates both).
func BenchmarkHandoffInstall(b *testing.B) {
	cfg := energyMobilityConfig(b, 1)
	origin := startServer(b, cfg)
	oc, err := Dial(origin.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer oc.Close()
	if _, err := oc.Decode("bench", sessionPayload("bench", 0)); err != nil && !errors.Is(err, ErrTagDark) {
		b.Fatal(err)
	}
	young := *oc.LastHandoff("bench")
	old := young
	old.Attempts, old.Stats.FramesOffered, old.Stats.PacketsSent, old.Seq = 1<<40, 1<<40, 1<<40, 1<<40
	old.TimelineCur = len(cfg.Timeline.Steps())
	for _, c := range []struct {
		name string
		hs   *HandoffState
	}{{"attempts=1", &young}, {"attempts=2^40", &old}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewServer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sh := s.shards[0]
			st := sh.ensureSession("bench")
			j := &job{op: OpHandoff, session: "bench", handoff: c.hs}
			for i := 0; i < b.N; i++ {
				if resp := sh.installHandoff(st, j); resp.Code != CodeOK {
					b.Fatalf("install: %s", resp.Error)
				}
			}
		})
	}
}
