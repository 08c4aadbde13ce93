package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"backfi/internal/obs"
)

// TestBinaryRequestLegacyBytes hand-pins the untraced binary request
// layout byte for byte: the trace extension must be invisible when no
// trace rides the request, so pre-trace peers interoperate with zero
// wire change. A traced request is exactly the legacy bytes plus the
// 9-byte extension block.
func TestBinaryRequestLegacyBytes(t *testing.T) {
	req := Request{Op: OpDecode, Session: "tag-7", Payload: []byte{0xAA, 0xBB}, TimeoutMs: 300}
	got, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		binKindDecode,
		5, 't', 'a', 'g', '-', '7', // uvarint session len | session
		2, 0xAA, 0xBB, // uvarint payload len | payload
		0xAC, 0x02, // uvarint 300
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced request bytes changed:\n got % x\nwant % x", got, want)
	}

	req.Trace = 0x1122334455667788
	traced, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	wantExt := append(append([]byte{}, want...),
		binExtTrace,
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, // u64 LE id
	)
	if !bytes.Equal(traced, wantExt) {
		t.Fatalf("traced request bytes:\n got % x\nwant % x", traced, wantExt)
	}
}

func TestBinaryRequestTraceRoundTrip(t *testing.T) {
	var names internTable
	for _, trace := range []uint64{0, 1, 0xDEADBEEFCAFE} {
		req := Request{Op: OpDecode, Session: "s", Payload: []byte("p"), Trace: trace}
		body, err := appendRequestBinary(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		// got starts dirty: the decoder must reset Trace on untraced
		// frames (the struct is reused across a connection's frames).
		got := Request{Trace: 0xFFFF}
		if err := decodeRequestBinary(body, &got, &names); err != nil {
			t.Fatalf("trace=%x: %v", trace, err)
		}
		if got.Trace != trace {
			t.Fatalf("trace round trip: got %x, want %x", got.Trace, trace)
		}
	}
}

func TestBinaryRequestExtensionMalformed(t *testing.T) {
	var names internTable
	base, err := appendRequestBinary(nil, &Request{Op: OpDecode, Session: "s", Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	// Unknown extension flag bits must be rejected, not skipped.
	if err := decodeRequestBinary(append(append([]byte{}, base...), 0x02), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown ext flags: %v", err)
	}
	// Truncated trace id.
	if err := decodeRequestBinary(append(append([]byte{}, base...), binExtTrace, 1, 2, 3), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated trace id: %v", err)
	}
	// Trailing junk after a complete extension.
	full := append(append([]byte{}, base...), binExtTrace)
	full = binary.LittleEndian.AppendUint64(full, 7)
	if err := decodeRequestBinary(append(full, 0xEE), &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("trailing bytes after extension: %v", err)
	}
	// The complete extension itself decodes.
	if err := decodeRequestBinary(full, &req, &names); err != nil || req.Trace != 7 {
		t.Fatalf("valid extension: err=%v trace=%x", err, req.Trace)
	}
}

// The zero-allocation steady-state contract extends to traced frames.
func TestBinaryCodecZeroAllocWithTrace(t *testing.T) {
	req := Request{Op: OpDecode, Session: "steady", Payload: bytes.Repeat([]byte{7}, 64), Trace: 0xABCDEF}
	body, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	var names internTable
	var dec Request
	if err := decodeRequestBinary(body, &dec, &names); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() { dst, _ = appendRequestBinary(dst[:0], &req) }); n != 0 {
		t.Errorf("encode traced request: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = decodeRequestBinary(body, &dec, &names) }); n != 0 {
		t.Errorf("decode traced request: %v allocs/op, want 0", n)
	}
}

// TestProtocolDeterminismTracing covers what the byte-identity matrix
// (TestProtocolDeterminism) does not: head-sampled tracing, where only
// some frames carry spans, leaves every response byte unchanged on
// either protocol, with the flight recorder and SLO windows attached.
// Tracing observes; it must never feed back into decode results.
func TestProtocolDeterminismTracing(t *testing.T) {
	stream := func(proto string, tracer *obs.Tracer) []byte {
		srv := startSeededServer(t, Config{
			Shards: 4,
			Tracer: tracer,
			Flight: obs.NewFlightRecorder(0),
			SLO:    obs.NewSLO(obs.SLOConfig{}),
		})
		var out []byte
		for _, sess := range []string{"trc-a", "trc-b"} {
			out = append(out, responseStream(t, srv.Addr(), proto, sess, 6, tracer)...)
		}
		return out
	}
	ref := stream("json", nil)
	for _, proto := range []string{"json", "binary"} {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 7, SampleEvery: 3})
		if got := stream(proto, tracer); !bytes.Equal(got, ref) {
			t.Errorf("%s sampled: response stream diverged from untraced reference", proto)
		}
		if _, spans, _ := tracer.Stats(); spans == 0 {
			t.Errorf("%s sampled: tracer recorded no spans — the variant did not actually trace", proto)
		}
	}
}

// TestEndToEndTraceSpans checks the full span picture of one traced
// frame: client and server share a tracer (as loadgen's self-serve mode
// does), so one trace id strings together the client send, the serve
// stages, and the decode pipeline stages.
func TestEndToEndTraceSpans(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{Seed: 3})
	srv := startSeededServer(t, Config{Shards: 1, Tracer: tracer})
	c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("e2e", bytes.Repeat([]byte{1}, 24)); err != nil {
		t.Fatal(err)
	}
	wantID := obs.TraceID(3, "e2e", 0)
	// The server ends its resp_write span after the response bytes are
	// on the socket, so the client can see the response first; wait for
	// that span before reading the trace.
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if hasSpan(tracer, "resp_write") {
			break
		}
	}
	byName := map[string]int{}
	for _, ev := range tracer.Events() {
		if ev.Trace != wantID {
			t.Fatalf("span %q carries trace %x, want %x", ev.Name, ev.Trace, wantID)
		}
		byName[ev.Name]++
		if ev.Dur < 0 {
			t.Fatalf("span %q has negative duration %d", ev.Name, ev.Dur)
		}
	}
	for _, name := range []string{
		"client_send", "conn_read", "queue_wait", "batch", "decode", "resp_write", // serve stages
		"channel_sim", "decode_total", // link stages
		"channel_estimate", "timing_search", "mrc", "viterbi", // pipeline stages
	} {
		if byName[name] == 0 {
			t.Errorf("no %q span recorded; got %v", name, byName)
		}
	}
	// The decode stage must nest inside the client send: every server
	// span starts at or after the client span does.
	evs := tracer.Events()
	var send, decode *obs.TraceEvent
	for i := range evs {
		switch evs[i].Name {
		case "client_send":
			send = &evs[i]
		case "decode":
			decode = &evs[i]
		}
	}
	if send == nil || decode == nil {
		t.Fatal("missing client_send or decode span")
	}
	if decode.Start < send.Start || decode.Start+decode.Dur > send.Start+send.Dur+int64(time.Millisecond) {
		t.Errorf("decode span [%d +%d] not inside client_send [%d +%d]",
			decode.Start, decode.Dur, send.Start, send.Dur)
	}
}

func hasSpan(tr *obs.Tracer, name string) bool {
	for _, ev := range tr.Events() {
		if ev.Name == name {
			return true
		}
	}
	return false
}

// TestClientFlightEvents pins satellite (b)'s client half: a killed
// connection must leave a conn_broken event, and the next healed call a
// matching redial event.
func TestClientFlightEvents(t *testing.T) {
	flight := obs.NewFlightRecorder(0)
	srv := startSeededServer(t, Config{Shards: 1})
	c, err := DialClient(ClientConfig{
		Addr: srv.Addr(), Proto: "binary",
		MaxRedials: 3, RedialBase: time.Millisecond,
		Flight: flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode("fl", bytes.Repeat([]byte{1}, 24)); err != nil {
		t.Fatal(err)
	}
	const kills = 3
	for k := 0; k < kills; k++ {
		c.BreakConn()
		if _, err := c.Decode("fl", bytes.Repeat([]byte{2}, 24)); err != nil {
			t.Fatalf("kill %d: decode after break: %v", k, err)
		}
	}
	if n := flight.Count(obs.FlightConnBroken); n != kills {
		t.Errorf("conn_broken events = %d, want %d", n, kills)
	}
	if n := flight.Count(obs.FlightRedial); n != kills {
		t.Errorf("redial events = %d, want %d", n, kills)
	}
	// Redial events name the session whose call healed the connection.
	for _, ev := range flight.Events() {
		if ev.Kind == obs.FlightRedial && ev.Session != "fl" {
			t.Errorf("redial event names session %q, want fl", ev.Session)
		}
	}
}

// TestBinaryRequestLegacyBytesMultiDecode extends the byte-for-byte
// pin to mdecode: an untraced multi-decode request must carry no trace
// extension and stay byte-identical to the pre-sampling layout, so
// fixing the head-sampling gap (mdecode now samples like decode) is
// invisible on the wire when tracing is off.
func TestBinaryRequestLegacyBytesMultiDecode(t *testing.T) {
	req := Request{Op: OpMultiDecode, Session: "g-1",
		Payloads: [][]byte{{0xAA, 0xBB}, {0xCC}}, TimeoutMs: 300}
	got, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		binKindMultiDecode,
		3, 'g', '-', '1', // uvarint session len | session
		2,             // uvarint payload count
		2, 0xAA, 0xBB, // payload 0
		1, 0xCC, // payload 1
		0xAC, 0x02, // uvarint 300
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced mdecode bytes changed:\n got % x\nwant % x", got, want)
	}
	req.Trace = 0x1122334455667788
	traced, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	wantExt := append(append([]byte{}, want...),
		binExtTrace,
		0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
	)
	if !bytes.Equal(traced, wantExt) {
		t.Fatalf("traced mdecode bytes:\n got % x\nwant % x", traced, wantExt)
	}
}

// TestMultiDecodeHeadSampling pins the satellite fix: the client
// head-samples mdecode frames exactly like decode frames — same
// per-session index, same deterministic every-Nth decision — so a
// multi-tag session's traces line up with a single-tag session's.
// Before the fix only OpDecode advanced the index and mdecode frames
// never carried a trace.
func TestMultiDecodeHeadSampling(t *testing.T) {
	t.Run("every-frame", func(t *testing.T) {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 5, SampleEvery: 1})
		srv := startSeededServer(t, Config{Shards: 1, Tracer: tracer})
		c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		group := [][]byte{bytes.Repeat([]byte{1}, 24), bytes.Repeat([]byte{2}, 24)}
		if _, err := c.MultiDecode("grp", group); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decode("grp", bytes.Repeat([]byte{3}, 24)); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("decode on a group id: err = %v, want bad_request", err)
		}
		// mdecode consumed index 0, so the plain decode is index 1: the
		// two ops share one per-session counter.
		ids := map[uint64]bool{}
		for _, ev := range tracer.Events() {
			if ev.Name == "client_send" {
				ids[ev.Trace] = true
			}
		}
		want0, want1 := obs.TraceID(5, "grp", 0), obs.TraceID(5, "grp", 1)
		if !ids[want0] || !ids[want1] || len(ids) != 2 {
			t.Fatalf("client_send trace ids = %v, want {%x, %x}", ids, want0, want1)
		}
	})
	t.Run("sampled", func(t *testing.T) {
		tracer := obs.NewTracer(obs.TracerConfig{Seed: 5, SampleEvery: 3})
		srv := startSeededServer(t, Config{Shards: 1, Tracer: tracer})
		c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary", Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		payload := bytes.Repeat([]byte{9}, 24)
		for i := 0; i < 6; i++ { // alternate ops; indices 0..5
			if i%2 == 0 {
				if _, err := c.MultiDecode("mix", [][]byte{payload}); err != nil {
					t.Fatal(err)
				}
			} else if _, err := c.Decode("mix", payload); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode on a group id: err = %v, want bad_request", err)
			}
		}
		// The sampling decision is a pure function of (seed, session,
		// index): index i samples iff TraceID(seed, session, i) is 0 mod
		// SampleEvery. Both ops drew from one shared index sequence, so
		// the observed client_send ids must be exactly the sampled subset
		// of indices 0..5, each traced once — an index skipped or
		// double-counted by either op would shift the whole set.
		want := map[uint64]int{}
		for i := 0; i < 6; i++ {
			if id := obs.TraceID(5, "mix", i); id%3 == 0 {
				want[id] = 1
			}
		}
		ids := map[uint64]int{}
		for _, ev := range tracer.Events() {
			if ev.Name == "client_send" {
				ids[ev.Trace]++
			}
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("sampled client_send trace ids = %v, want %v", ids, want)
		}
	})
}
