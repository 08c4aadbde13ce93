package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/obs"
)

func binRequests() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpStats, Session: "tag-7"},
		{Op: OpDecode, Session: "tag-7", Payload: []byte("hello, backscatter")},
		{Op: OpDecode, Session: "s", Payload: bytes.Repeat([]byte{0xAB}, 300), TimeoutMs: 1500},
		{Op: OpDecode, Session: "tag-Ω-unicode", Payload: []byte{0}},
		{Op: OpMultiDecode, Session: "group-3", Payloads: [][]byte{
			[]byte("reading-a"), []byte("reading-b"), []byte("reading-c"),
		}, TimeoutMs: 900},
		{Op: OpHandoff, Session: "migrant", Handoff: &HandoffState{
			Version: HandoffVersion, Attempts: 17, Seq: 9, TimelineCur: 2,
			Stats: SessionStats{
				FramesOffered: 9, FramesDelivered: 8, PacketsSent: 12,
				PayloadBits: 2048, AirtimeSec: 0.07, ACKsDropped: 1, NoWakes: 2,
				Backoffs: 1, BackoffSec: 0.25, ConfigSwitches: 3, BitRateBps: 1.5e6,
			},
			Ctrl: &CtrlState{
				Index: 2, Ceiling: 3, Attempts: 9, ConsecFail: 1, ConsecGood: 4,
				SinceSwitch: 5, EWMABER: 0.02, EWMASet: true, FloorDBm: -61.5, FloorSet: true,
			},
			WDHot: 1, WDCool: 2, Degraded: true,
		}},
		{Op: OpHandoff, Session: "plain", Handoff: &HandoffState{
			Version: HandoffVersion, Attempts: 3, Seq: 3,
			Stats: SessionStats{FramesOffered: 3, FramesDelivered: 3, PacketsSent: 3},
		}},
	}
}

func binResponses() []Response {
	return []Response{
		{OK: true, Code: CodeOK},
		{Code: CodeQueueFull, Error: ErrQueueFull.Error(), Session: "tag-7"},
		{OK: true, Code: CodeOK, Session: "tag-7", Seq: 42, Delivered: true, PayloadOK: true,
			Attempts: 3, NoWakes: 1, ACKsDropped: 1, SNRdB: 17.25, Degraded: true},
		{OK: true, Code: CodeOK, Session: "tag-7", Seq: 9, Stats: &SessionStats{
			FramesOffered: 9, FramesDelivered: 8, PacketsSent: 11, PayloadBits: 1536,
			AirtimeSec: 0.0123, ACKsDropped: 1, NoWakes: 2, Backoffs: 1,
			BackoffSec: 0.5, ConfigSwitches: 3, BitRateBps: 2.5e6,
		}},
		{Code: CodeError, Error: "serve: decode panic: boom", Session: "x"},
		{OK: true, Code: CodeOK, Session: "group-3", Seq: 4, Delivered: true, Attempts: 1, Tags: []TagResult{
			{Delivered: true, PayloadOK: true, Woke: true, SNRdB: 14.5},
			{Delivered: true, PayloadOK: true, Woke: true, SNRdB: 8.25},
			{Woke: true, SNRdB: -1.5},
		}},
		{OK: true, Code: CodeOK, Session: "migrant", Seq: 5, Delivered: true,
			PayloadOK: true, Attempts: 1, SNRdB: 12.5, Handoff: &HandoffState{
				Version: HandoffVersion, Attempts: 6, Seq: 5,
				Stats: SessionStats{FramesOffered: 5, FramesDelivered: 5, PacketsSent: 6, AirtimeSec: 0.01},
				Ctrl:  &CtrlState{Index: 1, Ceiling: 3, Attempts: 5, EWMABER: 0.001, EWMASet: true},
			}},
	}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	var names internTable
	for i, want := range binRequests() {
		body, err := appendRequestBinary(nil, &want)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		var got Request
		if err := decodeRequestBinary(body, &got, &names); err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		// The decoder reuses payload capacity, so normalize nil vs empty.
		if len(want.Payload) == 0 {
			want.Payload = []byte{}
		}
		if got.Op != want.Op || got.Session != want.Session || got.TimeoutMs != want.TimeoutMs ||
			!bytes.Equal(got.Payload, want.Payload) || !samePayloads(got.Payloads, want.Payloads) ||
			!reflect.DeepEqual(got.Handoff, want.Handoff) {
			t.Fatalf("req %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestBinaryResponseRoundTrip(t *testing.T) {
	var names internTable
	for i, want := range binResponses() {
		body, err := appendResponseBinary(nil, &want)
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		var got Response
		if err := decodeResponseBinary(body, &got, &names, nil); err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resp %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestBinaryCodecZeroAlloc pins the tentpole's zero-allocation claim:
// once buffers have grown and the session id is interned, encoding and
// decoding one frame in either direction touches the heap zero times.
func TestBinaryCodecZeroAlloc(t *testing.T) {
	req := Request{Op: OpDecode, Session: "steady-session", Payload: bytes.Repeat([]byte{7}, 64), TimeoutMs: 250}
	resp := Response{OK: true, Code: CodeOK, Session: "steady-session", Seq: 12,
		Delivered: true, PayloadOK: true, Attempts: 1, SNRdB: 21.5}
	reqBody, err := appendRequestBinary(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, err := appendResponseBinary(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	var names internTable
	var decReq Request
	var decResp Response
	// Warm the intern table and the payload buffer.
	if err := decodeRequestBinary(reqBody, &decReq, &names); err != nil {
		t.Fatal(err)
	}
	if err := decodeResponseBinary(respBody, &decResp, &names, nil); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 1024)
	checks := map[string]func(){
		"encode request":  func() { dst, _ = appendRequestBinary(dst[:0], &req) },
		"encode response": func() { dst, _ = appendResponseBinary(dst[:0], &resp) },
		"decode request":  func() { _ = decodeRequestBinary(reqBody, &decReq, &names) },
		"decode response": func() { _ = decodeResponseBinary(respBody, &decResp, &names, nil) },
	}
	for name, fn := range checks {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// TestBinaryDecodeMalformed feeds every truncation of valid frames
// plus assorted corruption to both decoders: the error must always be
// typed (ErrBadRequest) and the call must never panic.
func TestBinaryDecodeMalformed(t *testing.T) {
	var names internTable
	check := func(body []byte) {
		var req Request
		if err := decodeRequestBinary(body, &req, &names); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("request decoder returned untyped error %v for % x", err, body)
		}
		var resp Response
		if err := decodeResponseBinary(body, &resp, &names, nil); err != nil && !errors.Is(err, ErrBadRequest) {
			t.Fatalf("response decoder returned untyped error %v for % x", err, body)
		}
	}
	var whole [][]byte
	for _, r := range binRequests() {
		b, _ := appendRequestBinary(nil, &r)
		whole = append(whole, b)
	}
	for _, r := range binResponses() {
		b, _ := appendResponseBinary(nil, &r)
		whole = append(whole, b)
	}
	for _, b := range whole {
		for cut := 0; cut < len(b); cut++ {
			check(b[:cut])
		}
		check(append(append([]byte(nil), b...), 0xFF)) // trailing junk
	}
	// A truncated frame must error, not decode to a short field.
	full, _ := appendRequestBinary(nil, &Request{Op: OpDecode, Session: "s", Payload: []byte("abc")})
	var req Request
	if err := decodeRequestBinary(full[:len(full)-2], &req, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("truncated frame decoded without typed error: %v", err)
	}
	check([]byte{})
	check([]byte{0x7F})                                              // unknown kind
	check([]byte{binKindDecode, 0xFF})                               // dangling varint
	check([]byte{binKindDecode, 0x80, 0x80, 0x80, 0x80})             // unterminated varint
	check([]byte{binKindDecode, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // length way past body
	check([]byte{binKindResp, 0x00, 0xEE})                           // unknown response code
}

func startSeededServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "localhost:0"
	}
	if cfg.Link.WiFiMbps == 0 {
		cfg.Link = core.DefaultLinkConfig(1)
		cfg.Link.Seed = 7
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// TestBinaryClientEndToEnd drives ping/decode/stats through the
// negotiated binary protocol against a live server.
func TestBinaryClientEndToEnd(t *testing.T) {
	srv := startSeededServer(t, Config{})
	c, err := DialClient(ClientConfig{Addr: srv.Addr(), Proto: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 0; i < 3; i++ {
		resp, err := c.Decode("bin-e2e", []byte("binary end to end frame!"))
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if resp.Seq != i+1 {
			t.Fatalf("decode %d: seq %d", i, resp.Seq)
		}
	}
	st, err := c.Stats("bin-e2e")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.FramesOffered != 3 {
		t.Fatalf("stats offered %d, want 3", st.FramesOffered)
	}
}

// TestBinaryVersionSkew pins the negotiation contract: a client
// announcing an unknown version gets the server's preamble echoed (so
// it can report the skew) and then a closed connection.
func TestBinaryVersionSkew(t *testing.T) {
	srv := startSeededServer(t, Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{'B', 'F', 'B', binVersion + 1}); err != nil {
		t.Fatal(err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("reading version ack: %v", err)
	}
	if ack != binPreamble {
		t.Fatalf("ack % x, want server preamble % x", ack, binPreamble)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(ack[:1]); err != io.EOF {
		t.Fatalf("connection stayed open after version skew (read err %v)", err)
	}
}

// TestOneByteAtATimePeer pins the read-buffer policy against the most
// fragmented peer possible: every wire byte in its own TCP write, for
// both protocols. io.ReadFull over the buffered reader must reassemble
// frames regardless of segmentation.
func TestOneByteAtATimePeer(t *testing.T) {
	srv := startSeededServer(t, Config{})
	trickle := func(conn net.Conn, b []byte) {
		t.Helper()
		for i := range b {
			if _, err := conn.Write(b[i : i+1]); err != nil {
				t.Fatalf("trickle write: %v", err)
			}
		}
	}
	t.Run("json", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		trickle(conn, jsonFrame(t, &Request{Op: OpPing}))
		var codec wireCodec
		rb, err := codec.reader(bufioReader(conn)).read()
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := codec.decodeResponse(rb, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("ping not OK: %+v", resp)
		}
	})
	t.Run("binary", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		body, err := appendRequestBinary([]byte{0, 0, 0, 0}, &Request{Op: OpPing})
		if err != nil {
			t.Fatal(err)
		}
		wire := append(append([]byte{}, binPreamble[:]...), finishBinaryFrame(body)...)
		trickle(conn, wire)
		br := bufioReader(conn)
		var ack [4]byte
		if _, err := io.ReadFull(br, ack[:]); err != nil || ack != binPreamble {
			t.Fatalf("handshake ack % x err %v", ack, err)
		}
		fr := &frameReader{br: br, le: true}
		rb, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		var names internTable
		if err := decodeResponseBinary(rb, &resp, &names, nil); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("ping not OK: %+v", resp)
		}
	})
}

// TestFrameReaderBoundedRetention pins the buffer-reuse policy: small
// frames share one buffer, a jumbo frame's buffer is not retained.
func TestFrameReaderBoundedRetention(t *testing.T) {
	var wire bytes.Buffer
	big := bytes.Repeat([]byte{1}, maxRetainedBuf+1)
	small := []byte("small frame")
	for _, body := range [][]byte{small, big, small} {
		var hdr [4]byte
		le32(hdr[:], uint32(len(body)))
		wire.Write(hdr[:])
		wire.Write(body)
	}
	fr := &frameReader{br: bufioReader(&wire), le: true}
	if _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	capAfterSmall := cap(fr.buf)
	if _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) != capAfterSmall {
		t.Fatalf("jumbo frame was retained: cap %d", cap(fr.buf))
	}
	b, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, small) {
		t.Fatalf("frame after jumbo corrupted: %q", b)
	}
}

// responseStream collects one session's decode responses as canonical
// JSON bytes — the §5g determinism currency. The handoff snapshot is
// stripped: whether one rides on a response is the only thing
// Config.Handoff changes.
func responseStream(t *testing.T, addr, proto, session string, frames int, tracer *obs.Tracer) []byte {
	t.Helper()
	c, err := DialClient(ClientConfig{Addr: addr, Proto: proto, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out bytes.Buffer
	for i := 0; i < frames; i++ {
		payload := bytes.Repeat([]byte{byte(i + 1)}, 24)
		resp, err := c.Decode(session, payload)
		if err != nil {
			t.Fatalf("%s frame %d: %v", proto, i, err)
		}
		resp.Handoff = nil
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestProtocolDeterminism is the serving layer's byte-identity
// matrix: a session's decode stream is identical across shards {1, 8}
// × protocol {json, binary} × tracing {off, every frame} × Handoff
// {off, on} (snapshots stripped), and also with batch bound 1 and with
// unpooled wire frame buffers. Every session runs the one pipeline and
// the one RNG schedule, so no serving knob may move a byte.
func TestProtocolDeterminism(t *testing.T) {
	type variant struct {
		shards, batch int
		proto         string
		traced        bool
		handoff       bool
		pooled        bool
	}
	stream := func(v variant) []byte {
		framePoolDisabled.Store(!v.pooled)
		defer framePoolDisabled.Store(false)
		var tracer *obs.Tracer
		if v.traced {
			tracer = obs.NewTracer(obs.TracerConfig{Seed: 7, SampleEvery: 1})
		}
		srv := startSeededServer(t, Config{Shards: v.shards, BatchMax: v.batch, Handoff: v.handoff, Tracer: tracer})
		var out []byte
		for _, sess := range []string{"det-a", "det-b"} {
			out = append(out, responseStream(t, srv.Addr(), v.proto, sess, 6, tracer)...)
		}
		if _, spans, _ := tracer.Stats(); v.traced && spans == 0 {
			t.Errorf("%+v: tracer recorded no spans — the variant did not actually trace", v)
		}
		return out
	}
	ref := stream(variant{shards: 1, batch: 16, proto: "json", pooled: true})
	var variants []variant
	for _, shards := range []int{1, 8} {
		for _, proto := range []string{"json", "binary"} {
			for _, traced := range []bool{false, true} {
				for _, handoff := range []bool{false, true} {
					variants = append(variants, variant{shards, 16, proto, traced, handoff, true})
				}
			}
		}
	}
	variants = append(variants,
		variant{shards: 4, batch: 1, proto: "binary", pooled: true},
		variant{shards: 4, batch: 16, proto: "binary", pooled: false})
	for _, v := range variants[1:] {
		if got := stream(v); !bytes.Equal(got, ref) {
			t.Errorf("%+v: response stream diverged from the shards=1 JSON reference", v)
		}
	}
}

func bufioReader(r io.Reader) *bufio.Reader { return bufio.NewReader(r) }

func le32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// The intern table stays bounded under id churn by starting over, and
// every id it hands out keeps its bytes after the generation that
// packed it has been dropped.
func TestInternTableStartsOver(t *testing.T) {
	var names internTable
	got := make([]string, 0, 3*maxInterned)
	for i := 0; i < 3*maxInterned; i++ {
		id := fmt.Sprintf("churned-session-%05d", i)
		s := names.get([]byte(id))
		if s != id {
			t.Fatalf("get(%q) = %q", id, s)
		}
		if again := names.get([]byte(id)); unsafe.StringData(again) != unsafe.StringData(s) {
			t.Fatalf("id %q interned twice within one generation", id)
		}
		if len(names.m) > maxInterned {
			t.Fatalf("%d entries interned, bound %d", len(names.m), maxInterned)
		}
		got = append(got, s)
	}
	for i, s := range got {
		if want := fmt.Sprintf("churned-session-%05d", i); s != want {
			t.Fatalf("id %d reads %q after later generations, want %q", i, s, want)
		}
	}
}

// v2Snapshot is a version-2 snapshot with every block present.
func v2Snapshot() *HandoffState {
	return &HandoffState{Version: HandoffVersion, Attempts: 5, Seq: 4, TimelineCur: 1,
		HEnv: wireTaps([]complex128{0.1 - 0.2i, 1e-3 + 2e-4i}), HF: wireTaps([]complex128{1e-4}), HB: wireTaps([]complex128{-1e-4i}),
		Stats: SessionStats{FramesOffered: 4, FramesDelivered: 3, PacketsSent: 5, AirtimeSec: 0.01},
		Ctrl:  &CtrlState{Index: 1, Ceiling: 3, EWMABER: 0.001, EWMASet: true},
		Energy: &EnergyState{Tank: energy.TankSnapshot{ChargeJ: 1e-8, State: energy.TankLive, Slot: 9, SpentJ: 3e-9},
			DarkStreak: 2, DarkSec: 0.06, Liveness: 0.5},
		WDHot: 1}
}

func mustBin(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// v1HandoffRequest is a handoff request whose block uses the version-1
// hand-written layout: uvarint version, attempts, seq, timeline cursor,
// eight stats counts, three f64 stats, a flags byte and the two
// watchdog streaks.
func v1HandoffRequest() []byte {
	b := []byte{binKindHandoff, 2, 'v', '1'}
	for _, v := range []uint64{1, 3, 3, 0, 3, 3, 3, 384, 0, 0, 0, 0} {
		b = binary.AppendUvarint(b, v)
	}
	for range 3 {
		b = appendF64(b, 0.01)
	}
	return append(b, 0, 0, 0, 0) // flags, wd_hot, wd_cool, timeout_ms
}

// TestHandoffBlockJSON pins the one snapshot encoding: a binary handoff
// block is the snapshot's JSON — the bytes the JSON protocol carries —
// behind a uvarint length, it round-trips every v2 field, and a
// version-1 block is a typed bad_request.
func TestHandoffBlockJSON(t *testing.T) {
	v2 := v2Snapshot()
	js, err := json.Marshal(v2)
	if err != nil {
		t.Fatal(err)
	}
	body := mustBin(appendRequestBinary(nil, &Request{Op: OpHandoff, Session: "v2", Handoff: v2}))
	want := binary.AppendUvarint([]byte{binKindHandoff, 2, 'v', '2'}, uint64(len(js)))
	want = append(append(want, js...), 0)
	if !bytes.Equal(body, want) {
		t.Fatalf("handoff request body\n%q\nwant\n%q", body, want)
	}
	var names internTable
	var got Request
	if err := decodeRequestBinary(body, &got, &names); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Handoff, v2) {
		t.Fatalf("round trip %+v, want %+v", got.Handoff, v2)
	}
	if err := decodeRequestBinary(v1HandoffRequest(), &got, &names); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("v1 handoff block: %v, want bad_request", err)
	}
}
