package scenario

import (
	"errors"
	"reflect"
	"testing"

	"backfi/internal/core"
	"backfi/internal/serve"
)

// fake is a scripted Target: script(n) is its answer to the n-th
// decode or mdecode call; a non-nil statsErr fails every stats probe.
type fake struct {
	calls    int
	script   func(n int) serve.Response
	statsErr error
}

func (f *fake) answer() (*serve.Response, error) {
	r := f.script(f.calls)
	f.calls++
	return &r, r.Err()
}

func (f *fake) Decode(string, []byte) (*serve.Response, error)        { return f.answer() }
func (f *fake) MultiDecode(string, [][]byte) (*serve.Response, error) { return f.answer() }
func (f *fake) Stats(string) (*serve.SessionStats, error) {
	if f.statsErr != nil {
		return nil, f.statsErr
	}
	return &serve.SessionStats{}, nil
}
func (f *fake) Close() error { return nil }

func live(seq int) serve.Response {
	return serve.Response{OK: true, Code: serve.CodeOK, Seq: seq, Delivered: true}
}

func dark(seq int) serve.Response { return serve.Response{Code: serve.CodeTagDark, Seq: seq} }

// dialFake gives every client its own fake over the same script.
func dialFake(script func(n int) serve.Response) func(int) (Target, error) {
	return func(int) (Target, error) { return &fake{script: script}, nil }
}

// violated reports whether err holds a violation of inv.
func violated(err error, inv Invariant) bool {
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		var v *Violation
		if errors.As(e, &v) && v.Invariant == inv {
			return true
		}
	}
	return false
}

func TestProgramDeterministic(t *testing.T) {
	if !reflect.DeepEqual(Churn(1, 500, 2, 4, 0.1), Churn(1, 500, 2, 4, 0.1)) {
		t.Fatal("the same seed built two different churn programs")
	}
	if reflect.DeepEqual(Churn(1, 500, 2, 4, 0.1), Churn(2, 500, 2, 4, 0.1)) {
		t.Fatal("seeds 1 and 2 built the same churn program")
	}
	if !reflect.DeepEqual(Closed("s", 3, 20, 7, 4), Closed("s", 3, 20, 7, 4)) {
		t.Fatal("Closed is not a pure function of its arguments")
	}
	// The CI churn smoke (2,000 ids at 2%) must draw active ids: each
	// id's draw comes from its own SplitMix64 stream, so the fraction
	// tracks the requested one.
	active := 0
	for _, s := range Churn(1, 2000, 2, 4, 0.02) {
		if s.Ops[0].Kind == MultiDecode {
			active++
		}
	}
	if active < 20 || active > 60 {
		t.Fatalf("%d of 2000 ids active at fraction 0.02, want about 40", active)
	}
}

func TestClosedProgramShape(t *testing.T) {
	prog := Closed("chaos", 2, 31, 15, 2)
	if prog[1].ID != "chaos-001" {
		t.Fatalf("id %q", prog[1].ID)
	}
	var kinds []Kind
	for _, op := range prog[0].Ops {
		kinds = append(kinds, op.Kind)
	}
	// 31 decodes with a break before frames 15 and 30, two parks, stats.
	if len(kinds) != 31+2+2+1 || kinds[15] != Break || kinds[31] != Break ||
		kinds[33] != Park || kinds[35] != Stats || prog[0].Ops[34].Frame != 32 {
		t.Fatalf("program shape %v", prog[0].Ops)
	}
}

func TestPayloadBytes(t *testing.T) {
	want := append([]byte("loadgen-003/000007/"), 7, 7, 7, 7, 7)
	if got := Payload("loadgen-003", 7, 24); string(got) != string(want) {
		t.Fatalf("payload %q, want %q", got, want)
	}
	if got := Payload("cluster-000", 300, 12); string(got) != "cluster-000/" {
		t.Fatalf("cut payload %q", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 50, 100, 200} {
		sorted := make([]int64, n)
		for i := range sorted {
			sorted[i] = int64(i + 1) // the value is its own rank
		}
		for _, pct := range []int{50, 95, 99} {
			want := (pct*n + 99) / 100 // ⌈pct·n/100⌉
			if got := Quantile(sorted, float64(pct)/100); got != float64(want) {
				t.Errorf("n=%d p%d: got rank %v, want %d", n, pct, got, want)
			}
		}
	}
	if Quantile(nil, 0.99) != 0 {
		t.Error("empty sample")
	}
}

func TestInvariantsFailTheRun(t *testing.T) {
	prog := Closed("s", 2, 6, 0, 0)
	cases := map[string]struct {
		cfg Config
		inv Invariant
	}{
		"skipped seq": {Config{Dial: dialFake(func(n int) serve.Response {
			if n >= 3 {
				return live(n + 2) // frame 3 answers seq 5
			}
			return live(n + 1)
		})}, SeqGap},
		"fresh session opens at seq 2": {Config{Dial: dialFake(func(n int) serve.Response {
			return live(n + 2) // a first frame run twice: frame 0 answers seq 2
		})}, SeqGap},
		"dark answer moves seq": {Config{DarkRetries: 1, Dial: dialFake(func(n int) serve.Response {
			if n == 2 {
				return dark(3) // frame 2's first poll: dark, but seq moved
			}
			return live(n + 1)
		})}, SeqGap},
		"control mismatch": {Config{
			Dial: dialFake(func(n int) serve.Response { return live(n + 1) }),
			Control: dialFake(func(n int) serve.Response {
				r := live(n + 1)
				r.Attempts = n / 5 // differs from frame 5 on
				return r
			}),
		}, Mismatch},
		"delivered > offered": {Config{
			Program: []Session{{ID: "g", Ops: []Op{{Kind: MultiDecode, Tags: 2}}}},
			Dial: dialFake(func(n int) serve.Response {
				r := live(n + 1)
				r.Tags = make([]serve.TagResult, 3)
				for k := range r.Tags {
					r.Tags[k].Delivered = true
				}
				return r
			}),
		}, Conservation},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if c.cfg.Program == nil {
				c.cfg.Program = prog
			}
			res, err := Run(c.cfg)
			if err == nil || !violated(err, c.inv) || res.Count(c.inv) == 0 {
				t.Fatalf("run passed or missed the %s violation: %v", c.inv, err)
			}
		})
	}
	// A daemon that served the ids before (SeenIDs) may open them at
	// any Seq; from there the stream must still be gap-free.
	if _, err := Run(Config{Program: prog, SeenIDs: true,
		Dial: dialFake(func(n int) serve.Response { return live(n + 2) })}); err != nil {
		t.Fatalf("seen ids: %v", err)
	}
	// The same runs without the fault pass.
	res, err := Run(Config{Program: prog, Dial: dialFake(func(n int) serve.Response { return live(n + 1) }),
		Control: dialFake(func(n int) serve.Response { return live(n + 1) })})
	if err != nil || res.Total().Delivered != 12 {
		t.Fatalf("clean run: %v, %+v", err, res.Total())
	}
}

func TestFailedProbeLeavesNoStats(t *testing.T) {
	f := &fake{script: func(n int) serve.Response { return live(n + 1) }, statsErr: errors.New("connection reset")}
	res, err := Run(Config{Program: Closed("s", 1, 3, 0, 0), Dial: func(int) (Target, error) { return f, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Clients[0]; o.Stats != nil || o.Failed != 1 || o.Delivered != 3 {
		t.Fatalf("failed probe: stats %v, failed %d, delivered %d", o.Stats, o.Failed, o.Delivered)
	}
}

func TestDrainFailsOnLeak(t *testing.T) {
	h := NewHarness()
	stop := make(chan struct{})
	defer close(stop)
	// Leak more goroutines than earlier tests may still be unwinding,
	// so their exit cannot hide the leak from the count.
	for i := 0; i < 64; i++ {
		go func() { <-stop }()
	}
	_, err := h.Drain()
	var v *Violation
	if !errors.As(err, &v) || v.Invariant != Leak {
		t.Fatalf("leaked goroutine passed drain: %v", err)
	}
}

func TestDarkPollBudget(t *testing.T) {
	// The tag answers four dark polls before every live one.
	script := func(n int) serve.Response {
		if n%5 < 4 {
			return dark(n / 5)
		}
		return live(n/5 + 1)
	}
	for _, c := range []struct{ retries, delivered, failed, polls int }{
		// The budget covers each episode: three frames land, 4 polls each.
		{4, 3, 0, 12},
		// One short: frame 0 fails on its 4th dark poll, frame 1 gets the
		// live answer, frame 2 fails on the next episode's 4th poll.
		{3, 1, 2, 8},
	} {
		res, err := Run(Config{Program: []Session{{ID: "e", Ops: []Op{{Frame: 0}, {Frame: 1}, {Frame: 2}}}},
			DarkRetries: c.retries, Dial: dialFake(script)})
		if err != nil {
			t.Fatal(err)
		}
		tot := res.Total()
		if tot.Delivered != c.delivered || tot.Failed != c.failed || tot.DarkPolls != c.polls {
			t.Fatalf("retries %d: delivered %d failed %d dark polls %d, want %d/%d/%d",
				c.retries, tot.Delivered, tot.Failed, tot.DarkPolls, c.delivered, c.failed, c.polls)
		}
	}
}

// TestSameCountsOnBothProtocols drives one closed program, with
// connection breaks, against an in-process daemon over JSON and over
// binary: the counts match, and mirrored onto a control daemon the
// binary answers are byte-identical to the JSON ones.
func TestSameCountsOnBothProtocols(t *testing.T) {
	h := NewHarness()
	link := core.DefaultLinkConfig(1)
	link.Seed = 7
	boot := func(shards int) string {
		srv, err := h.Boot(serve.Config{Link: link, Shards: shards, Handoff: true})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Addr()
	}
	dial := func(addr, proto string) func(int) (Target, error) {
		return func(int) (Target, error) {
			return serve.DialClient(serve.ClientConfig{Addr: addr, Proto: proto, MaxRedials: 2})
		}
	}
	prog := Closed("p", 3, 8, 3, 0)
	var totals []Outcome
	for _, proto := range []string{"json", "binary"} {
		res, err := Run(Config{Program: prog, PayloadBytes: 24, Dial: dial(boot(2), proto)})
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		tot := res.Total()
		tot.LatencyUS, tot.Stats = nil, nil
		totals = append(totals, tot)
	}
	if !reflect.DeepEqual(totals[0], totals[1]) {
		t.Fatalf("json %+v\nbinary %+v", totals[0], totals[1])
	}
	if totals[0].Offered != 24 || totals[0].Kills != 6 || totals[0].Health.Redials != 6 {
		t.Fatalf("counts %+v", totals[0])
	}
	if _, err := Run(Config{Program: prog, PayloadBytes: 24,
		Dial: dial(boot(4), "binary"), Control: dial(boot(1), "json")}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Drain(); err != nil {
		t.Fatal(err)
	}
}
