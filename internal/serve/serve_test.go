package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/obs"
)

// startServer boots a daemon on an ephemeral port and registers its
// shutdown with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "localhost:0"
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	return s
}

// sessionPayload is the deterministic workload: frame i of a session
// is a fixed function of (session id, i), so two runs offer identical
// bytes.
func sessionPayload(session string, i int) []byte {
	p := []byte(fmt.Sprintf("%s/frame-%02d/", session, i))
	for len(p) < 24 {
		p = append(p, byte(i))
	}
	return p[:24]
}

// runWorkload drives N concurrent sessions over loopback (one
// connection per session, frames in order) and returns each session's
// full response stream plus final stats, JSON-marshalled — the bytes
// the determinism contract promises are identical.
func runWorkload(t *testing.T, addr string, sessions []string, frames int) map[string][]byte {
	t.Helper()
	var mu sync.Mutex
	out := map[string][]byte{}
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions))
	for _, id := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var stream []Response
			for i := 0; i < frames; i++ {
				resp, err := c.Decode(id, sessionPayload(id, i))
				if err != nil {
					errs <- fmt.Errorf("session %s frame %d: %w", id, i, err)
					return
				}
				stream = append(stream, *resp)
			}
			stats, err := c.Stats(id)
			if err != nil {
				errs <- err
				return
			}
			blob, err := json.Marshal(struct {
				Stream []Response
				Stats  *SessionStats
			}{stream, stats})
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			out[id] = blob
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return out
}

// TestDeterministicAcrossShards is the §5e contract: N concurrent
// sessions over loopback produce byte-identical per-session results
// for shard counts 1 and 8, under -race. Each session's seed stream
// derives from its id alone, and its jobs run in connection order
// within one shard, so neither the shard count nor cross-session
// interleaving may change a single byte. Half the sessions run under a
// fault profile, and every frame borrows its waveform scratch from one
// process-wide pool that clean and faulted sessions on every shard
// share; a third run with pooling off (fresh zeroed buffers per frame)
// pins that the shared scratch carries nothing between frames.
func TestDeterministicAcrossShards(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 7
	faulted := link
	p := fault.Standard(0.3)
	faulted.Faults = &p
	sessions := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	const frames = 3
	run := func(shards int, pooled bool) map[string][]byte {
		defer core.SetScratchPooling(core.SetScratchPooling(pooled))
		out := map[string][]byte{}
		for i, l := range []core.LinkConfig{link, faulted} {
			s := startServer(t, Config{
				Link:       l,
				Shards:     shards,
				MaxRetries: 2,
				Obs:        obs.NewRegistry(), // metrics must not perturb results
			})
			for id, blob := range runWorkload(t, s.Addr(), sessions[i*3:i*3+3], frames) {
				out[id] = blob
			}
			s.Shutdown(context.Background())
		}
		return out
	}
	one := run(1, true)
	eight := run(8, true)
	fresh := run(8, false)
	for _, id := range sessions {
		if string(one[id]) != string(eight[id]) {
			t.Fatalf("session %s diverged between shard counts:\n1: %s\n8: %s", id, one[id], eight[id])
		}
		if string(eight[id]) != string(fresh[id]) {
			t.Fatalf("session %s diverged between pooled and fresh scratch:\npooled: %s\nfresh:  %s", id, eight[id], fresh[id])
		}
	}
}

// TestBackpressureTypedRejection pins the queue-bound contract
// white-box: with no worker draining, the QueueDepth-th+1 job is
// rejected with ErrQueueFull — no blocking, no panic — and a draining
// shard rejects with ErrDraining.
func TestBackpressureTypedRejection(t *testing.T) {
	s, err := NewServer(Config{QueueDepth: 3, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	mk := func() *job {
		return &job{op: OpDecode, session: "x", payloads: [][]byte{[]byte("p")}, enqueued: time.Now(), resp: make(chan Response, 1)}
	}
	for i := 0; i < 3; i++ {
		if err := sh.enqueue(mk()); err != nil {
			t.Fatalf("job %d rejected below the bound: %v", i, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- sh.enqueue(mk()) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow error = %v, want ErrQueueFull", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue blocked on a full queue instead of rejecting")
	}
	sh.mu.Lock()
	sh.draining = true
	sh.mu.Unlock()
	if err := sh.enqueue(mk()); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining error = %v, want ErrDraining", err)
	}
}

// TestBackpressureOverLoopback floods a 1-shard, depth-1 daemon while
// its worker chews a long decode: overflow must come back as typed
// queue_full responses over the wire, and admitted+rejected must
// account for every request — no hangs, no panics.
func TestBackpressureOverLoopback(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 3
	s := startServer(t, Config{Link: link, Shards: 1, QueueDepth: 1, BatchMax: 1})
	// Dial every client first: connection setup crawls once the
	// blocker decode saturates the CPUs, and a late flood misses the
	// busy window entirely.
	const flood = 12
	clients := make([]*Client, flood)
	for i := range clients {
		c, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Park the worker on a long frame (payload length sets decode
	// time; 4000 bytes is ~0.4s of DSP), then flood while it is busy.
	blocker, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	blocked := make(chan error, 1)
	go func() {
		_, err := blocker.Decode("blocker", make([]byte, 4000))
		blocked <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the worker pick the blocker up
	var ok, rejected, other int
	var mu sync.Mutex
	var wg sync.WaitGroup
	fire := make(chan struct{})
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-fire
			_, err := clients[i].Decode(fmt.Sprintf("flood-%d", i), sessionPayload("flood", i))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				other++
			}
		}(i)
	}
	close(fire)
	wg.Wait()
	if err := <-blocked; err != nil {
		t.Fatalf("blocker frame failed: %v", err)
	}
	if other != 0 {
		t.Fatalf("unexpected non-backpressure failures: %d", other)
	}
	if ok+rejected != flood {
		t.Fatalf("accounting: ok %d + rejected %d != %d", ok, rejected, flood)
	}
	if rejected == 0 {
		t.Fatal("depth-1 queue under a 12-way flood never overflowed")
	}
}

// TestDeadlineExceededBeforeSession checks that an expired job is
// answered with the typed deadline code before it can touch session
// state (the determinism carve-out for timeouts).
func TestDeadlineExceededBeforeSession(t *testing.T) {
	s, err := NewServer(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	st := sh.ensureSession("x")
	j := &job{
		op: OpDecode, session: "x", payloads: [][]byte{[]byte("p")},
		enqueued: time.Now().Add(-time.Second),
		deadline: time.Now().Add(-time.Millisecond),
		resp:     make(chan Response, 1),
	}
	sh.serveJob(st, j)
	resp := <-j.resp
	if resp.Code != CodeDeadline {
		t.Fatalf("code = %q, want %q", resp.Code, CodeDeadline)
	}
	if !errors.Is(resp.Err(), ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", resp.Err())
	}
	if st.sess != nil || st.multi != nil || st.seq != 0 {
		t.Fatal("expired job touched session state")
	}
}

// TestJobPanicIsolated feeds serveJob a state that panics (nil
// session): the shard must answer CodeError and keep running rather
// than crash the daemon.
func TestJobPanicIsolated(t *testing.T) {
	s, err := NewServer(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	j := &job{op: OpStats, session: "ghost", enqueued: time.Now(), resp: make(chan Response, 1)}
	sh.serveJob(nil, j) // nil state → nil dereference inside the job
	resp := <-j.resp
	if resp.Code != CodeError {
		t.Fatalf("code = %q, want %q after a panic", resp.Code, CodeError)
	}
	// The shard survives: a real job on the same shard still works.
	j2 := &job{op: OpStats, session: "ghost", enqueued: time.Now(), resp: make(chan Response, 1)}
	sh.serveJob(sh.ensureSession("ghost"), j2)
	if resp := <-j2.resp; !resp.OK {
		t.Fatalf("shard broken after panic: %+v", resp)
	}
}

// TestBadRequests drives the protocol edges end to end.
func TestBadRequests(t *testing.T) {
	s := startServer(t, Config{Shards: 1})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for _, req := range []*Request{
		{Op: "warp", Session: "x"},
		{Op: OpDecode, Session: ""},
		{Op: OpDecode, Session: "x", Payload: nil},
	} {
		resp, err := c.do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != CodeBadRequest {
			t.Fatalf("req %+v: code %q, want %q", req, resp.Code, CodeBadRequest)
		}
	}
}

// TestGracefulDrain checks the SIGTERM path: draining rejects new work
// with the typed error while completed work stays answered, and
// Shutdown returns cleanly.
func TestGracefulDrain(t *testing.T) {
	link := core.DefaultLinkConfig(1)
	link.Seed = 5
	s := startServer(t, Config{Link: link, Shards: 2})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("steady", sessionPayload("steady", 0)); err != nil {
		t.Fatalf("pre-drain decode: %v", err)
	}
	// Flip the drain flag the way Shutdown does, before tearing
	// anything down: the live connection must see typed rejection.
	s.draining.Store(true)
	if _, err := c.Decode("steady", sessionPayload("steady", 1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining decode err = %v, want ErrDraining", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServingMetrics spot-checks the §5e instruments: admission
// outcomes and the session gauge reflect the served load.
func TestServingMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	link := core.DefaultLinkConfig(1)
	link.Seed = 9
	s := startServer(t, Config{Link: link, Shards: 1, Obs: reg})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames = 3
	for i := 0; i < frames; i++ {
		if _, err := c.Decode("m", sessionPayload("m", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(obs.MetricServeJobs, `{outcome="admitted"}`); got != frames {
		t.Fatalf("admitted = %d, want %d", got, frames)
	}
	if got := snap.Counter(obs.MetricServeJobs, `{outcome="done"}`); got != frames {
		t.Fatalf("done = %d, want %d", got, frames)
	}
	if got := snap.Counter(obs.MetricServeConns, ""); got < 1 {
		t.Fatalf("connections = %d, want ≥1", got)
	}
}
