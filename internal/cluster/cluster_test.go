package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"backfi/internal/core"
	"backfi/internal/obs"
	"backfi/internal/serve"
)

// clusterNodeConfig is the shared node template: every node must run
// the same serving config for routing to be state-free, and Handoff
// must be on for failover to carry state.
func clusterNodeConfig() serve.Config {
	link := core.DefaultLinkConfig(2.5)
	link.Seed = 11
	return serve.Config{
		Addr:       "localhost:0",
		Link:       link,
		Shards:     2,
		MaxRetries: 2,
		Handoff:    true,
	}
}

func startNode(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	srv, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv
}

func clusterTemplate() serve.ClientConfig {
	return serve.ClientConfig{
		Proto:      "binary",
		IOTimeout:  10 * time.Second,
		MaxRedials: 2,
		RedialBase: time.Millisecond,
		RedialMax:  2 * time.Millisecond,
	}
}

func framePayload(session string, i int) []byte {
	p := []byte(fmt.Sprintf("%s/%06d/", session, i))
	for len(p) < 24 {
		p = append(p, byte(i))
	}
	return p[:24]
}

// TestClusterFailoverByteIdentical is the tentpole's acceptance test
// in miniature: sessions spread over three nodes, one node is hard-
// killed mid-stream, every session heals onto a survivor, and each
// session's full response stream is byte-identical to a single
// uninterrupted control node.
func TestClusterFailoverByteIdentical(t *testing.T) {
	cfg := clusterNodeConfig()
	control := startNode(t, cfg)
	cc, err := serve.DialClient(serve.ClientConfig{Addr: control.Addr(), Proto: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	nodes := []*serve.Server{startNode(t, cfg), startNode(t, cfg), startNode(t, cfg)}
	addrs := make([]string, len(nodes))
	byAddr := map[string]*serve.Server{}
	for i, n := range nodes {
		addrs[i] = n.Addr()
		byAddr[n.Addr()] = n
	}
	flight := obs.NewFlightRecorder(0)
	cl, err := New(Config{Addrs: addrs, Client: clusterTemplate(), Flight: flight, TraceSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	sessions := make([]string, 6)
	for i := range sessions {
		sessions[i] = fmt.Sprintf("fleet-%02d", i)
	}
	const frames, cut = 10, 4
	want := map[string][]string{}
	got := map[string][]string{}
	decodeRound := func(from, to int) {
		for _, id := range sessions {
			for i := from; i < to; i++ {
				cr, err := cc.Decode(id, framePayload(id, i))
				if err != nil {
					t.Fatalf("control %s frame %d: %v", id, i, err)
				}
				gr, err := cl.Decode(id, framePayload(id, i))
				if err != nil {
					t.Fatalf("cluster %s frame %d: %v", id, i, err)
				}
				wb, _ := json.Marshal(cr)
				gb, _ := json.Marshal(gr)
				want[id] = append(want[id], string(wb))
				got[id] = append(got[id], string(gb))
			}
		}
	}
	decodeRound(0, cut)

	// Hard-kill the node owning the first session (no drain — the
	// clients see a dead peer, exactly like a crashed process).
	victim, ok := cl.Owner(sessions[0])
	if !ok {
		t.Fatal("no owner")
	}
	victimSessions := 0
	for _, id := range sessions {
		if o, _ := cl.Owner(id); o == victim {
			victimSessions++
		}
	}
	byAddr[victim].Kill()
	decodeRound(cut, frames)

	for _, id := range sessions {
		if len(got[id]) != frames {
			t.Fatalf("%s: %d frames, want %d", id, len(got[id]), frames)
		}
		for i := range want[id] {
			if got[id][i] != want[id][i] {
				t.Fatalf("%s frame %d diverged from control:\ngot  %s\nwant %s",
					id, i, got[id][i], want[id][i])
			}
		}
	}
	if up := cl.UpNodes(); len(up) != 2 {
		t.Fatalf("up nodes after kill = %v", up)
	}
	if o, _ := cl.Owner(sessions[0]); o == victim {
		t.Fatal("killed node still owns sessions")
	}

	// The black box tells the failover story: one node_down, one
	// reroute + handoff per session the victim owned, and each
	// session's episode events share a nonzero trace id so the kill,
	// re-route, and handoff line up on one timeline.
	if n := flight.Count(obs.FlightNodeDown); n != 1 {
		t.Errorf("node_down events = %d, want 1", n)
	}
	if n := flight.Count(obs.FlightReroute); n != victimSessions {
		t.Errorf("reroute events = %d, want %d (victim owned that many sessions)", n, victimSessions)
	}
	if n := flight.Count(obs.FlightHandoffInstall); n != victimSessions {
		t.Errorf("handoff_install events = %d, want %d", n, victimSessions)
	}
	reroutes := map[uint64]bool{}
	installs := map[uint64]bool{}
	var downTrace uint64
	for _, ev := range flight.Events() {
		if ev.Trace == 0 {
			t.Fatalf("%s event without a trace id: %+v", ev.Kind, ev)
		}
		switch ev.Kind {
		case obs.FlightReroute:
			reroutes[ev.Trace] = true
		case obs.FlightHandoffInstall:
			installs[ev.Trace] = true
		case obs.FlightNodeDown:
			downTrace = ev.Trace
		}
	}
	if !reroutes[downTrace] || !installs[downTrace] {
		t.Errorf("node_down trace %x has no linked reroute/handoff_install event", downTrace)
	}
	for tr := range reroutes {
		if !installs[tr] {
			t.Errorf("reroute trace %x has no matching handoff_install", tr)
		}
	}
}

// TestClusterRejoinMigratesBack drives the rebalance half: a node
// marked down (spuriously — the process is fine) loses its sessions to
// survivors; after a health probe re-admits it, its sessions migrate
// back with their snapshots and the stream stays byte-identical to the
// control node throughout.
func TestClusterRejoinMigratesBack(t *testing.T) {
	cfg := clusterNodeConfig()
	control := startNode(t, cfg)
	cc, err := serve.DialClient(serve.ClientConfig{Addr: control.Addr(), Proto: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()

	nodes := []*serve.Server{startNode(t, cfg), startNode(t, cfg), startNode(t, cfg)}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	flight := obs.NewFlightRecorder(0)
	cl, err := New(Config{Addrs: addrs, Client: clusterTemplate(), Flight: flight, TraceSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const id = "boomerang"
	check := func(i int) {
		cr, err := cc.Decode(id, framePayload(id, i))
		if err != nil {
			t.Fatalf("control frame %d: %v", i, err)
		}
		gr, err := cl.Decode(id, framePayload(id, i))
		if err != nil {
			t.Fatalf("cluster frame %d: %v", i, err)
		}
		wb, _ := json.Marshal(cr)
		gb, _ := json.Marshal(gr)
		if string(wb) != string(gb) {
			t.Fatalf("frame %d diverged:\ngot  %s\nwant %s", i, gb, wb)
		}
	}
	for i := 0; i < 3; i++ {
		check(i)
	}
	home, _ := cl.Owner(id)

	// Spurious down-mark: routing abandons the node though it is alive.
	cl.mu.Lock()
	cl.markDown(home, id, 0, errors.New("injected"))
	cl.mu.Unlock()
	for i := 3; i < 6; i++ {
		check(i)
	}
	if away, _ := cl.Owner(id); away == home {
		t.Fatal("session did not move off the down node")
	}

	// The probe re-admits it; ownership and state both return.
	if revived := cl.ProbeOnce(); len(revived) != 1 || revived[0] != home {
		t.Fatalf("ProbeOnce revived %v, want [%s]", revived, home)
	}
	if back, _ := cl.Owner(id); back != home {
		t.Fatalf("owner after rejoin = %s, want %s", back, home)
	}
	for i := 6; i < 9; i++ {
		check(i)
	}
	if n := flight.Count(obs.FlightNodeUp); n != 1 {
		t.Errorf("node_up events = %d, want 1", n)
	}
	// Two migrations happened (away and back), each carrying state.
	if n := flight.Count(obs.FlightHandoffInstall); n != 2 {
		t.Errorf("handoff_install events = %d, want 2", n)
	}
	// Final stats agree with the uninterrupted control session.
	cstats, err := cc.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	gstats, err := cl.Stats(id)
	if err != nil {
		t.Fatal(err)
	}
	if *cstats != *gstats {
		t.Fatalf("stats diverged:\ngot  %+v\nwant %+v", gstats, cstats)
	}
}

// TestClusterAllNodesDown pins the terminal error: when every node is
// gone the client fails typed, not hung.
func TestClusterAllNodesDown(t *testing.T) {
	cfg := clusterNodeConfig()
	n1, n2 := startNode(t, cfg), startNode(t, cfg)
	cl, err := New(Config{Addrs: []string{n1.Addr(), n2.Addr()}, Client: clusterTemplate()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Decode("d", framePayload("d", 0)); err != nil {
		t.Fatal(err)
	}
	n1.Kill()
	n2.Kill()
	if _, err := cl.Decode("d", framePayload("d", 1)); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("want ErrNoNodes, got %v", err)
	}
}

// TestClusterHandoffRejectedContinuesSession pins failover when the
// survivor refuses the snapshot (here it runs without handoff; a
// session past the replay bound is refused the same way, with
// bad_request): the session keeps decoding on the survivor without the
// snapshot's state, its stream restarting at Seq 1, and the refusal is
// one handoff_reject flight event instead of an error on every later
// frame.
func TestClusterHandoffRejectedContinuesSession(t *testing.T) {
	cfg := clusterNodeConfig()
	origin := startNode(t, cfg)
	noHandoff := cfg
	noHandoff.Handoff = false
	survivor := startNode(t, noHandoff)
	flight := obs.NewFlightRecorder(0)
	cl, err := New(Config{Addrs: []string{origin.Addr(), survivor.Addr()}, Client: clusterTemplate(), Flight: flight, TraceSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var id string
	for i := 0; id == ""; i++ {
		cand := fmt.Sprintf("refused-%d", i)
		if o, _ := cl.Owner(cand); o == origin.Addr() {
			id = cand
		}
	}
	const before = 3
	for i := 0; i < before; i++ {
		if _, err := cl.Decode(id, framePayload(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	origin.Kill()
	for i := 0; i < 3; i++ {
		resp, err := cl.Decode(id, framePayload(id, before+i))
		if err != nil {
			t.Fatalf("frame %d after failover: %v", before+i, err)
		}
		if resp.Seq != i+1 {
			t.Fatalf("frame %d after failover: seq %d, want %d (fresh stream on the survivor)", before+i, resp.Seq, i+1)
		}
	}
	if o, _ := cl.Owner(id); o != survivor.Addr() {
		t.Fatalf("session owned by %s, want the survivor", o)
	}
	if n := flight.Count(obs.FlightHandoffReject); n != 1 {
		t.Errorf("handoff_reject events = %d, want 1", n)
	}
	if n := flight.Count(obs.FlightHandoffInstall); n != 0 {
		t.Errorf("handoff_install events = %d, want 0", n)
	}
}
