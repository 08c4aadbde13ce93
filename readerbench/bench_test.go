package main

import (
	"errors"
	"testing"

	"backfi/internal/obs"
	"backfi/internal/serve"
)

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {99, 99, 1}, {100, 100, 0}, {0.1, 1, 99}} {
		v, beyond, ok := nearestRank(xs, c.p)
		if !ok || v != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v (%d beyond, ok %v), want %v (%d beyond)", c.p, v, beyond, ok, c.want, c.beyond)
		}
	}
	if _, _, ok := nearestRank(nil, 50); ok {
		t.Error("empty sample reported a percentile")
	}
	if _, _, ok := percentile(xs, 99); ok {
		t.Error("p99 of 100 samples (1 beyond) reported as supported")
	}
	if _, _, ok := percentile(xs, 50); !ok {
		t.Error("p50 of 100 samples (50 beyond) reported as unsupported")
	}
	if _, beyond, ok := percentile(make([]float64, minP99Samples), 99); !ok || beyond != minBeyond {
		t.Errorf("p99 of %d samples: %d beyond, supported %v", minP99Samples, beyond, ok)
	}
	if _, _, ok := percentile(make([]float64, minP99Samples-1), 99); ok {
		t.Errorf("p99 of %d samples reported as supported", minP99Samples-1)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func ev(name string, start, end int64) obs.TraceEvent {
	return obs.TraceEvent{Trace: 7, Name: name, Start: start, Dur: end - start}
}

func TestFrameTimesSelfTime(t *testing.T) {
	self, total := frameTimes([]obs.TraceEvent{
		ev(rootSpan, 0, 100),
		ev("client_send", 5, 95),
		ev("conn_read", -10, 10), // began before the client sent: clipped to [0,10]
		ev("decode", 20, 80),
		ev("channel_sim", 22, 30), // two ARQ attempts
		ev("channel_sim", 45, 50),
		ev("decode_total", 30, 45),
		ev("viterbi", 35, 40),
		ev("mrc", 40, 42),
		ev("resp_write", 82, 90),
	})
	want := map[string]int64{
		rootSpan:       100 - 95,          // client_send ∪ clipped conn_read = [0,95]
		"client_send":  90 - (5 + 60 + 8), // conn_read [5,10], decode, resp_write
		"conn_read":    10,
		"decode":       60 - (8 + 5 + 15),
		"channel_sim":  8 + 5,
		"decode_total": 15 - (5 + 2),
		"viterbi":      5,
		"mrc":          2,
		"resp_write":   8,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if total["conn_read"] != 10 || total["decode_total"] != 15 || total[rootSpan] != 100 {
		t.Errorf("totals %v", total)
	}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != total[rootSpan] {
		t.Errorf("self times sum to %d, want the root's %d", sum, total[rootSpan])
	}
}

func TestUnionLen(t *testing.T) {
	if n := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 21}}); n != 11 {
		t.Errorf("union = %d, want 11", n)
	}
	if n := unionLen(nil); n != 0 {
		t.Errorf("empty union = %d", n)
	}
}

func TestTraceReportCountsTimedFrames(t *testing.T) {
	evs := []obs.TraceEvent{
		{Trace: 1, Name: rootSpan, Start: 0, Dur: 10},
		{Trace: 1, Name: "decode", Start: 2, Dur: 6},
		{Trace: 2, Name: rootSpan, Start: 0, Dur: 4}, // not timed
		{Trace: 3, Name: rootSpan, Start: 5, Dur: 10},
		{Trace: 3, Name: "decode", Start: 6, Dur: 2},
	}
	self, total, frames := traceReport(evs, map[uint64]bool{1: true, 3: true})
	if frames != 2 || total[rootSpan] != 20 || total["decode"] != 8 || self[rootSpan] != 12 {
		t.Errorf("frames %d, total %v, self %v", frames, total, self)
	}
}

func TestFrameAccounting(t *testing.T) {
	ok := tally{offered: 10, delivered: 6, undelivered: 2, rejected: 1, failed: 1}
	if err := ok.checkAccounting(); err != nil {
		t.Error(err)
	}
	bad := ok
	bad.undelivered = 1
	if err := bad.checkAccounting(); err == nil {
		t.Error("lost frame not caught")
	}
	var sum tally
	sum.add(ok)
	sum.add(ok)
	if sum.offered != 20 || sum.checkAccounting() != nil {
		t.Errorf("summed tally %+v", sum)
	}
}

func TestClassify(t *testing.T) {
	typed := func(code string) (*serve.Response, error) {
		r := &serve.Response{Code: code}
		return r, r.Err()
	}
	for code, want := range map[string]outcome{
		serve.CodeOK:         answered,
		serve.CodeQueueFull:  rejected,
		serve.CodeDraining:   rejected,
		serve.CodeDeadline:   rejected,
		serve.CodeTagDark:    rejected,
		serve.CodeBadRequest: failed,
		serve.CodeError:      failed,
	} {
		if got := classify(typed(code)); got != want {
			t.Errorf("%s classified %v, want %v", code, got, want)
		}
	}
	if got := classify(nil, errors.Join(serve.ErrConnBroken, errors.New("eof"))); got != failed {
		t.Errorf("transport failure classified %v", got)
	}
}

func TestPlanAndPayloadsFromSeed(t *testing.T) {
	for _, sp := range workloads {
		seen := map[string]bool{}
		for c := 0; c < conns; c++ {
			for j := 0; j < 2*sp.warmSteps(); j++ {
				a, b := sp.plan(1, c, j), sp.plan(1, c, j)
				if a != b {
					t.Fatalf("%s: plan not a pure function of the seed", sp.name)
				}
				if a == sp.plan(2, c, j) {
					t.Errorf("%s: seeds 1 and 2 share step %v", sp.name, a)
				}
				if j < sp.warmSteps() {
					seen[a.id] = true
				}
				p := sp.payloads(1, a)
				if len(p) != sp.frameWidth() || len(p[0]) != sp.payload || string(p[0]) != string(sp.payloads(1, a)[0]) {
					t.Fatalf("%s: payloads %d×%d not reproducible", sp.name, len(p), len(p[0]))
				}
			}
		}
		if want := conns * sp.warmSteps(); len(seen) != want {
			t.Errorf("%s: warm-up touches %d sessions, want %d", sp.name, len(seen), want)
		}
	}
}

// runBudget serves a fixed number of requests per connection and
// returns the run's digest.
func runBudget(t *testing.T, sp spec, seed int64, shards, budget int) string {
	t.Helper()
	r, err := setUp(sp, rigOptions{seed: seed, shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	tl, _, _ := r.measure(window{budget: budget})
	r.tearDown()
	if v := r.violations(); len(v) > 0 {
		t.Fatalf("%s: violations %v", sp.name, v)
	}
	if err := tl.checkAccounting(); err != nil {
		t.Fatal(err)
	}
	if tl.requests != conns*budget || tl.offered != tl.requests*sp.frameWidth() {
		t.Fatalf("%s: %d requests, %d frames offered", sp.name, tl.requests, tl.offered)
	}
	return r.digest()
}

// TestDigestDeterminism pins the daemon's determinism contract from
// outside: the same seed gives the same per-session response records,
// at any shard count, while another seed gives other inputs.
func TestDigestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real decodes")
	}
	for _, sp := range workloads {
		budget := 2
		if sp.burst > 0 {
			budget = sp.burst + 1 // cross into each connection's second group id
		}
		ref := runBudget(t, sp, 1, shardsFixed, budget)
		if again := runBudget(t, sp, 1, shardsFixed, budget); again != ref {
			t.Errorf("%s: same-seed runs differ: %s vs %s", sp.name, ref, again)
		}
		if one := runBudget(t, sp, 1, 1, budget); one != ref {
			t.Errorf("%s: 1 shard vs %d differ: %s vs %s", sp.name, shardsFixed, one, ref)
		}
		if other := runBudget(t, sp, 2, shardsFixed, budget); other == ref {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", sp.name)
		}
	}
}
