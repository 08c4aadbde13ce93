package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
)

// slotPayloads is the deterministic multi-tag workload: slot i of a
// session carries one fixed payload per group member.
func slotPayloads(session string, slot, tags int) [][]byte {
	out := make([][]byte, tags)
	for k := range out {
		p := []byte(fmt.Sprintf("%s/slot-%02d/tag-%d/", session, slot, k))
		for len(p) < 24 {
			p = append(p, byte(slot))
		}
		out[k] = p[:24]
	}
	return out
}

// TestMultiTagCollisionMatrix is the §5i serving acceptance matrix:
// impostor {off,on} × shards {1,8} × protocol {json,binary}. In every
// cell the joint decoder must deliver both colliding tags of every
// slot, and the response streams — multi-tag per impostor setting, and
// the single-tag control session across ALL cells — must be
// byte-identical: shard count, wire protocol, and multi-tag impostors
// never perturb a session's decode stream.
func TestMultiTagCollisionMatrix(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 1001
	const slots = 2
	type cell struct {
		impostor bool
		shards   int
		proto    string
	}
	var cells []cell
	for _, imp := range []bool{false, true} {
		for _, shards := range []int{1, 8} {
			for _, proto := range []string{"json", "binary"} {
				cells = append(cells, cell{imp, shards, proto})
			}
		}
	}
	multi := map[bool]map[string][]byte{false: {}, true: {}}
	single := map[string][]byte{}
	for _, c := range cells {
		key := fmt.Sprintf("shards=%d/proto=%s", c.shards, c.proto)
		ckey := fmt.Sprintf("impostor=%v/%s", c.impostor, key)
		s := startServer(t, Config{
			Link:             link,
			Shards:           c.shards,
			MultiTagImpostor: c.impostor,
			Obs:              obs.NewRegistry(), // metrics must not perturb results
		})
		cl, err := DialClient(ClientConfig{Addr: s.Addr(), Proto: c.proto})
		if err != nil {
			t.Fatal(err)
		}
		var mstream, sstream []Response
		for i := 0; i < slots; i++ {
			resp, err := cl.MultiDecode("group-a", slotPayloads("group-a", i, 2))
			if err != nil {
				t.Fatalf("%s slot %d: %v", ckey, i, err)
			}
			if !resp.Delivered || len(resp.Tags) != 2 {
				t.Fatalf("%s slot %d: delivered=%v tags=%+v", ckey, i, resp.Delivered, resp.Tags)
			}
			for k, tr := range resp.Tags {
				if !tr.Delivered || !tr.PayloadOK || !tr.Woke {
					t.Fatalf("%s slot %d tag %d: %+v", ckey, i, k, tr)
				}
			}
			mstream = append(mstream, *resp)
			// The single-tag control rides the same server.
			sresp, err := cl.Decode("solo", sessionPayload("solo", i))
			if err != nil {
				t.Fatalf("%s solo frame %d: %v", ckey, i, err)
			}
			sstream = append(sstream, *sresp)
		}
		mstats, err := cl.Stats("group-a")
		if err != nil {
			t.Fatal(err)
		}
		if mstats.FramesOffered != 2*slots || mstats.PacketsSent != slots {
			t.Fatalf("%s: synthesized multi stats %+v", ckey, mstats)
		}
		cl.Close()
		s.Shutdown(context.Background())
		mb, _ := json.Marshal(mstream)
		sb, _ := json.Marshal(sstream)
		multi[c.impostor][key] = mb
		single[ckey] = sb
	}
	for _, imp := range []bool{false, true} {
		var ref []byte
		for key, b := range multi[imp] {
			if ref == nil {
				ref = b
				continue
			}
			if string(b) != string(ref) {
				t.Fatalf("impostor=%v: multi-tag stream diverged at %s:\n%s\nvs\n%s", imp, key, b, ref)
			}
		}
	}
	var ref []byte
	for key, b := range single {
		if ref == nil {
			ref = b
			continue
		}
		if string(b) != string(ref) {
			t.Fatalf("single-tag stream diverged at %s:\n%s\nvs\n%s", key, b, ref)
		}
	}
}

// TestMultiTagGroupSizeFixed pins the session contract: the first
// mdecode fixes the group size, later slots must match it, and bounds
// are enforced at admission.
func TestMultiTagGroupSizeFixed(t *testing.T) {
	s := startServer(t, Config{Shards: 1, MultiTagMax: 4})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.MultiDecode("g", slotPayloads("g", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MultiDecode("g", slotPayloads("g", 1, 3)); err == nil {
		t.Fatal("group-size change accepted")
	}
	if _, err := cl.MultiDecode("g2", slotPayloads("g2", 0, 5)); err == nil {
		t.Fatal("over-bound group accepted")
	}
	if _, err := cl.MultiDecode("g3", [][]byte{[]byte("x"), nil}); err == nil {
		t.Fatal("empty payload in group accepted")
	}
}

// TestSessionEviction churns distinct ids through a TTL-armed server
// and checks the reclamation contract: shard maps shrink back, the
// session gauge decrements, the eviction counter and flight events
// record each reclaim, and a re-used id reopens the same deterministic
// stream from frame zero.
func TestSessionEviction(t *testing.T) {
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(0)
	s := startServer(t, Config{
		Shards:     4,
		SessionTTL: 50 * time.Millisecond,
		Obs:        reg,
		Flight:     flight,
	})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A decode before churn, to replay after eviction.
	first, err := cl.Decode("revenant", sessionPayload("revenant", 0))
	if err != nil {
		t.Fatal(err)
	}

	const churn = 48
	for i := 0; i < churn; i++ {
		if _, err := cl.Stats(fmt.Sprintf("churn-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Sessions(); got == 0 {
		t.Fatal("no live sessions after churn")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Sessions(); got != 0 {
		t.Fatalf("%d sessions still live after TTL", got)
	}
	if got, want := s.Evictions(), churn+1; got < want {
		t.Fatalf("evictions = %d, want >= %d", got, want)
	}
	if g := reg.Gauge(obs.MetricServeSessions, "Live reader sessions.").Value(); g != 0 {
		t.Fatalf("session gauge = %v after full eviction", g)
	}
	var evicted int
	for _, e := range flight.Events() {
		if e.Kind == obs.FlightSessionEvict {
			evicted++
		}
	}
	if evicted < churn {
		t.Fatalf("flight recorded %d evictions, want >= %d", evicted, churn)
	}

	// The evicted id rebuilds from its seed: same first frame, Seq 1.
	again, err := cl.Decode("revenant", sessionPayload("revenant", 0))
	if err != nil {
		t.Fatal(err)
	}
	if again.Seq != 1 || again.Delivered != first.Delivered || again.SNRdB != first.SNRdB {
		t.Fatalf("re-opened session diverged: first %+v, again %+v", first, again)
	}
}

// TestMultiTagStatsAfterStats pins that a stats on a fresh id leaves
// the id's kind open: stats → two group slots → stats reports the
// group, with every polled tag-frame a frame and every slot a packet.
func TestMultiTagStatsAfterStats(t *testing.T) {
	s := startServer(t, Config{Shards: 1})
	cl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const tags, slots = 2, 2
	if _, err := cl.Stats("g"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		if _, err := cl.MultiDecode("g", slotPayloads("g", i, tags)); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	st, err := cl.Stats("g")
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesOffered != slots*tags || st.PacketsSent != slots {
		t.Fatalf("group stats after an early stats = %+v, want %d frames over %d packets", st, slots*tags, slots)
	}
}

// TestMultiTagTimeline pins that the scripted fault timeline reaches
// group sessions: a step at frame 0 is crossed by the first slot,
// counts as a fault switch, changes the slot stream against a
// no-timeline control, and lands identically on 1 and 8 shards.
func TestMultiTagTimeline(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 1003
	const slots = 3
	run := func(tl *fault.Timeline, shards int) ([]byte, int64) {
		s := startServer(t, Config{Link: link, Shards: shards, Timeline: tl, Obs: obs.NewRegistry()})
		cl, err := DialClient(ClientConfig{Addr: s.Addr(), Proto: "binary"})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var stream []Response
		for i := 0; i < slots; i++ {
			resp, err := cl.MultiDecode("grp", slotPayloads("grp", i, 2))
			if err != nil {
				t.Fatalf("slot %d: %v", i, err)
			}
			stream = append(stream, *resp)
		}
		b, _ := json.Marshal(stream)
		return b, s.m.faultSwitch.Value()
	}
	control, switches := run(nil, 1)
	if switches != 0 {
		t.Fatalf("control run counted %d fault switches", switches)
	}
	tl := chaosTimeline(t, "0:0.7")
	one, switches := run(tl, 1)
	if switches != 1 {
		t.Fatalf("fault switches = %d over a step at frame 0, want 1", switches)
	}
	if string(one) == string(control) {
		t.Fatal("timeline step left the group's slot stream unchanged")
	}
	if eight, _ := run(tl, 8); string(eight) != string(one) {
		t.Fatalf("group stream under a timeline diverged across shards:\n%s\nvs\n%s", one, eight)
	}
}

// TestSessionKindFixed pins the one-kind-per-id contract: a decode on
// a group id, an mdecode on a single-tag id and a handoff onto a group
// id are bad_request, and the session's next response is byte-identical
// to a control run that never saw the rejected op.
func TestSessionKindFixed(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 1005
	group := func(cl *Client, slot int) (*Response, error) {
		return cl.MultiDecode("id", slotPayloads("id", slot, 2))
	}
	single := func(cl *Client, frame int) (*Response, error) {
		return cl.Decode("id", sessionPayload("id", frame))
	}
	hs := &HandoffState{Version: HandoffVersion}
	cases := map[string]struct {
		first, next func(*Client, int) (*Response, error)
		reject      func(*Client) error
	}{
		"decode-on-group": {group, group, func(cl *Client) error {
			_, err := cl.Decode("id", sessionPayload("id", 9))
			return err
		}},
		"mdecode-on-single": {single, single, func(cl *Client) error {
			_, err := cl.MultiDecode("id", slotPayloads("id", 9, 2))
			return err
		}},
		"handoff-onto-group": {group, group, func(cl *Client) error {
			_, err := cl.InstallHandoff("id", hs)
			return err
		}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(rejected bool) []byte {
				s := startServer(t, Config{Link: link, Shards: 1, Handoff: true})
				cl, err := Dial(s.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				if _, err := c.first(cl, 0); err != nil {
					t.Fatal(err)
				}
				if rejected {
					if err := c.reject(cl); !errors.Is(err, ErrBadRequest) {
						t.Fatalf("cross-kind op: err = %v, want bad_request", err)
					}
				}
				resp, err := c.next(cl, 1)
				if err != nil {
					t.Fatal(err)
				}
				b, _ := json.Marshal(resp)
				return b
			}
			if got, want := run(true), run(false); string(got) != string(want) {
				t.Fatalf("rejected op perturbed the session:\n%s\nvs control\n%s", got, want)
			}
		})
	}
}

// TestStatsOpensNoSession pins that stats never realizes a core
// session: a fresh id answers a fresh session's zero stats (with the
// template bit rate when the rate can move), holds state that counts
// in Sessions(), and is reclaimed by the TTL sweep.
func TestStatsOpensNoSession(t *testing.T) {
	s, err := NewServer(Config{Shards: 1, Adapt: true})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	st := sh.ensureSession("fresh")
	j := &job{op: OpStats, session: "fresh", enqueued: time.Now(), resp: make(chan Response, 1)}
	sh.serveJob(st, j)
	resp := <-j.resp
	if !resp.OK || resp.Seq != 0 || resp.Stats == nil {
		t.Fatalf("stats on a fresh id: %+v", resp)
	}
	want := SessionStats{BitRateBps: core.DefaultLinkConfig(1).Tag.BitRate()}
	if *resp.Stats != want {
		t.Fatalf("fresh stats = %+v, want %+v", *resp.Stats, want)
	}
	if st.sess != nil || st.multi != nil || st.tank != nil {
		t.Fatal("stats realized a core session")
	}

	srv := startServer(t, Config{Shards: 2, SessionTTL: 40 * time.Millisecond})
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ids = 6
	for i := 0; i < ids; i++ {
		if _, err := cl.Stats(fmt.Sprintf("probe-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Sessions() + srv.Evictions(); got != ids {
		t.Fatalf("%d sessions opened or evicted, want %d", got, ids)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Sessions() != 0 || srv.Evictions() != ids {
		t.Fatalf("after the TTL: %d live, %d evicted, want 0 and %d", srv.Sessions(), srv.Evictions(), ids)
	}
}
