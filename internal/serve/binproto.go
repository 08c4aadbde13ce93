package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Binary wire protocol (DESIGN.md §5g). A connection opts in by
// sending the 4-byte preamble "BFB"+version before its first frame;
// the server echoes its own preamble back (version negotiation) and
// the connection switches to binary frames in both directions. JSON
// frames always start with a 4-byte big-endian length whose high byte
// is 0x00 (MaxFrameBytes is 1 MiB), so the preamble's first byte 'B'
// (0x42) is unambiguous and legacy JSON clients keep working
// byte-identically with no negotiation round trip.
//
// Frame layout, both directions:
//
//	u32 LE body length | body
//
// Request body:
//
//	kind (1 byte: 0x01 decode, 0x02 stats, 0x03 ping, 0x04 mdecode,
//	      0x05 handoff)
//	uvarint session length | session bytes
//	uvarint payload length | payload bytes          (0x01/0x02/0x03)
//	  — or, for 0x04 —
//	uvarint payload count | per payload: uvarint length | bytes
//	  — or, for 0x05 —
//	handoff block
//	uvarint timeout_ms
//	[extension, optional: flags (1 byte: bit0 trace) | u64 LE trace id]
//
// The extension block is emitted only when it carries something (a
// traced request), so untraced requests are byte-identical to the
// pre-extension wire format; decoders reject unknown extension flag
// bits.
//
// Response body:
//
//	kind (1 byte: 0x81)
//	flags (1 byte: bit0 ok, bit1 delivered, bit2 payload_ok,
//	       bit3 degraded, bit4 stats present, bit5 tags present,
//	       bit6 handoff present)
//	code (1 byte: enum below)
//	uvarint error length | error bytes
//	uvarint session length | session bytes
//	uvarint seq | attempts | no_wakes | acks_dropped
//	f64 LE snr_db
//	[stats, when bit4:
//	  uvarint frames_offered | frames_delivered | packets_sent |
//	          payload_bits | acks_dropped | no_wakes | backoffs |
//	          config_switches
//	  f64 LE airtime_sec | backoff_sec | bit_rate_bps]
//	[tags, when bit5:
//	  uvarint count | per tag: flags (1 byte: bit0 delivered,
//	  bit1 payload_ok, bit2 woke) | f64 LE snr_db]
//	[handoff block, when bit6]
//
// The handoff block (0x05 requests and bit6 responses) is
//
//	uvarint length | JSON(HandoffState)
//
// — the encoding the JSON protocol uses, so a snapshot field is defined
// once, in the HandoffState struct.
//
// Every varint on the wire is a count (non-negative); the codec
// rejects anything else at encode time so the decoder never needs
// signed varints. The decoder only ever slices the frame body it was
// handed — declared lengths are checked against the remaining bytes
// before use, so malformed input returns a typed error (wrapping
// ErrBadRequest) and can neither panic nor over-read.
//
// Each message is described once, by a layout method on the wire
// walker below that visits its fields in wire order. The same method
// encodes (appending each field) and decodes (consuming it), so a
// field's position is written in one place and the two directions
// cannot drift apart. Flag bytes list their fields in bit order.
const binVersion = 1

// binPreamble is the negotiation preamble: magic "BFB" + version.
var binPreamble = [4]byte{'B', 'F', 'B', binVersion}

// Body kinds.
const (
	binKindDecode      = 0x01
	binKindStats       = 0x02
	binKindPing        = 0x03
	binKindMultiDecode = 0x04
	binKindHandoff     = 0x05
	binKindResp        = 0x81
)

// binOps maps each request kind byte to its op ("" = no such kind).
var binOps = [...]string{
	binKindDecode:      OpDecode,
	binKindStats:       OpStats,
	binKindPing:        OpPing,
	binKindMultiDecode: OpMultiDecode,
	binKindHandoff:     OpHandoff,
}

// binExtTrace is the trace bit of the request extension's flags byte.
const binExtTrace = 1 << 0

// Response code enum. The wire carries the byte; the structs keep the
// JSON string codes so both protocols share one Response type.
// Append-only: the decoder rejects bytes past the end of this table,
// so inserting (rather than appending) a code would shift every later
// byte and silently mistranslate frames across versions.
var binCodes = [...]string{CodeOK, CodeQueueFull, CodeDraining, CodeDeadline, CodeBadRequest, CodeError, CodeTagDark}

// Typed decode errors. Everything wraps ErrBadRequest so transports
// can answer a typed bad_request frame and fuzzing can assert the
// error contract.
var (
	errFrameTruncated = fmt.Errorf("%w: binary frame truncated", ErrBadRequest)
	errFrameKind      = fmt.Errorf("%w: unknown binary frame kind", ErrBadRequest)
	errFrameTrailing  = fmt.Errorf("%w: trailing bytes after binary frame", ErrBadRequest)
	errFrameVarint    = fmt.Errorf("%w: malformed varint", ErrBadRequest)
	errFrameRange     = fmt.Errorf("%w: varint field out of range", ErrBadRequest)
)

// Buffer-pool lifecycle: encoders build frames in []byte taken from
// this pool; the transport writes the frame and returns the buffer.
// Buffers that grew past maxPooledBuf are dropped instead of pooled so
// one oversized frame cannot pin memory for the process lifetime.
const maxPooledBuf = 64 << 10

var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// framePoolDisabled is a test hook: the determinism suite pins that
// pooled and unpooled buffers produce byte-identical streams.
var framePoolDisabled atomic.Bool

func getFrameBuf() *[]byte {
	if framePoolDisabled.Load() {
		b := make([]byte, 0, 512)
		return &b
	}
	return framePool.Get().(*[]byte)
}

func putFrameBuf(b *[]byte) {
	if framePoolDisabled.Load() || cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	framePool.Put(b)
}

// internTable deduplicates the session-id strings a connection keeps
// sending: the first occurrence is copied into the table, every later
// frame reuses the same string (map lookup keyed by []byte conversion
// does not allocate). It is bounded so a client cycling ids cannot
// grow it: when full it starts over, so the ids a connection is using
// now stay interned while ids it has churned past are released instead
// of pinning memory for the connection's lifetime. The strings of one
// generation share one buffer; an id that outlives its entry (a
// session's map key) keeps only that buffer alive, not a 24-byte
// object in a span of per-request garbage.
const maxInterned = 64

// internIDBytes is the buffer a generation starts with: room for
// maxInterned ids of typical length.
const internIDBytes = maxInterned * 32

type internTable struct {
	m   map[string]string
	buf strings.Builder
}

func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	if t.m == nil || len(t.m) >= maxInterned {
		clear(t.m)
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.buf = strings.Builder{}
		t.buf.Grow(internIDBytes)
	}
	t.buf.Write(b)
	s := t.buf.String()[t.buf.Len()-len(b):]
	t.m[s] = s
	return s
}

// wire walks one frame body in either direction: encoding appends each
// field to buf, decoding consumes it from the front of buf. The first
// error sticks and turns every later step into a no-op, so a layout
// reads as a plain list of fields. Encoding never writes through the
// field pointers, so encoding a message other goroutines read is
// race-free; decoding writes only the fields it has read.
type wire struct {
	enc   bool
	buf   []byte
	err   error
	names *internTable // interns decoded session ids
}

func (w *wire) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// u8 is one raw byte.
func (w *wire) u8(v *byte) {
	switch {
	case w.err != nil:
	case w.enc:
		w.buf = append(w.buf, *v)
	case len(w.buf) == 0:
		w.err = errFrameTruncated
	default:
		*v, w.buf = w.buf[0], w.buf[1:]
	}
}

// bits is one byte of flags, flags[i] at bit i. Decoding rejects bits
// this version does not define: they would be silently dropped on
// re-encode, so version skew surfaces as a typed error instead of data
// loss.
func (w *wire) bits(what string, flags ...*bool) {
	var b byte
	for i, f := range flags {
		if w.enc && *f {
			b |= 1 << i
		}
	}
	w.u8(&b)
	if w.enc || w.err != nil {
		return
	}
	if b>>len(flags) != 0 {
		w.err = fmt.Errorf("%w: unknown %s flag bits %#x", ErrBadRequest, what, b)
		return
	}
	for i, f := range flags {
		*f = b&(1<<i) != 0
	}
}

// enum is a string carried as its index in table, whose "" entries
// are unused bytes.
func (w *wire) enum(what string, v *string, table []string) {
	var b byte
	if w.enc {
		i := slices.Index(table, *v)
		if i < 0 || *v == "" {
			w.fail(fmt.Errorf("serve: %s %q has no binary encoding", what, *v))
		}
		b = byte(i)
	}
	w.u8(&b)
	if w.enc || w.err != nil {
		return
	}
	if int(b) >= len(table) || table[b] == "" {
		w.err = fmt.Errorf("%w: unknown %s byte %#x", ErrBadRequest, what, b)
		return
	}
	*v = table[b]
}

// count is a non-negative int as a uvarint, decoded within int32
// range.
func (w *wire) count(v *int) {
	if w.err != nil {
		return
	}
	if w.enc {
		if *v < 0 {
			w.err = fmt.Errorf("serve: negative count %d has no binary encoding", *v)
			return
		}
		w.buf = binary.AppendUvarint(w.buf, uint64(*v))
		return
	}
	u, n := binary.Uvarint(w.buf)
	switch {
	case n == 0:
		w.err = errFrameTruncated
	case n < 0:
		w.err = errFrameVarint
	case u > math.MaxInt32:
		w.err = errFrameRange
	default:
		*v, w.buf = int(u), w.buf[n:]
	}
}

// items is a list's element count. Decoding bounds it by the bytes
// left, each element taking at least size of them, so a hostile count
// cannot size an allocation.
func (w *wire) items(n, size int) int {
	w.count(&n)
	if !w.enc && w.err == nil && n > len(w.buf)/size {
		w.err = errFrameTruncated
	}
	if w.err != nil {
		return 0
	}
	return n
}

// u64 is a little-endian uint64.
func (w *wire) u64(v *uint64) {
	switch {
	case w.err != nil:
	case w.enc:
		w.buf = binary.LittleEndian.AppendUint64(w.buf, *v)
	case len(w.buf) < 8:
		w.err = errFrameTruncated
	default:
		*v, w.buf = binary.LittleEndian.Uint64(w.buf), w.buf[8:]
	}
}

// f64 is a little-endian IEEE-754 float64.
func (w *wire) f64(v *float64) {
	b := math.Float64bits(*v)
	w.u64(&b)
	if !w.enc && w.err == nil {
		*v = math.Float64frombits(b)
	}
}

// field is a length prefix: encoding writes n, decoding reads the
// length and returns that many bytes of the frame, which alias it.
func (w *wire) field(n int) []byte {
	w.count(&n)
	if w.enc || w.err != nil {
		return nil
	}
	if n > len(w.buf) {
		w.err = errFrameTruncated
		return nil
	}
	b := w.buf[:n]
	w.buf = w.buf[n:]
	return b
}

// bytes is a length-prefixed byte field, decoded into *v's capacity.
func (w *wire) bytes(v *[]byte) {
	b := w.field(len(*v))
	switch {
	case w.err != nil:
	case w.enc:
		w.buf = append(w.buf, *v...)
	default:
		*v = append((*v)[:0], b...)
	}
}

// str is a length-prefixed string. Decoded session ids are interned,
// so a connection's steady frames allocate nothing; other strings are
// copied (the empty happy-path error allocates nothing either).
func (w *wire) str(v *string, id bool) {
	b := w.field(len(*v))
	switch {
	case w.err != nil:
	case w.enc:
		w.buf = append(w.buf, *v...)
	case id:
		*v = w.names.get(b)
	default:
		*v = string(b)
	}
}

// json is a length-prefixed JSON block (the handoff block). It is off
// the zero-allocation path, and the decoded value owns its memory.
func (w *wire) json(v any) {
	var body []byte
	if w.enc && w.err == nil {
		body, w.err = json.Marshal(v)
	}
	b := w.field(len(body))
	switch {
	case w.err != nil:
	case w.enc:
		w.buf = append(w.buf, body...)
	default:
		if err := json.Unmarshal(b, v); err != nil {
			w.err = fmt.Errorf("%w: handoff block: %v", ErrBadRequest, err)
		}
	}
}

// end rejects bytes left over after a decoded frame.
func (w *wire) end() {
	if !w.enc && w.err == nil && len(w.buf) != 0 {
		w.err = errFrameTrailing
	}
}

// request is the request body's layout. Decoding reuses r's payload
// capacity and resets every op-specific field, so nothing from an
// earlier frame on the connection leaks into this one.
func (w *wire) request(r *Request) {
	w.enum("op", &r.Op, binOps[:])
	if w.err != nil {
		return
	}
	if !w.enc {
		r.Payload, r.Payloads, r.Handoff, r.Trace = r.Payload[:0], r.Payloads[:0], nil, 0
	}
	w.str(&r.Session, true)
	switch r.Op {
	case OpMultiDecode:
		n := w.items(len(r.Payloads), 1)
		if !w.enc {
			if cap(r.Payloads) < n {
				r.Payloads = make([][]byte, n)
			}
			r.Payloads = r.Payloads[:n]
		}
		for i := range r.Payloads {
			w.bytes(&r.Payloads[i])
		}
	case OpHandoff:
		if w.enc && r.Handoff == nil {
			w.fail(fmt.Errorf("serve: handoff request without handoff state"))
		}
		if !w.enc {
			r.Handoff = new(HandoffState)
		}
		w.json(r.Handoff)
	default:
		w.bytes(&r.Payload)
	}
	w.count(&r.TimeoutMs)
	// Optional trailing extension, emitted only for traced requests so
	// untraced frames stay byte-identical to pre-trace clients (pinned
	// by TestBinaryRequestLegacyBytes).
	traced := r.Trace != 0
	if w.enc && traced || !w.enc && len(w.buf) != 0 {
		w.bits("request extension", &traced)
		if traced {
			w.u64(&r.Trace)
		}
	}
	w.end()
}

// response is the response body's layout. A decoded stats block lands
// in statsBuf (allocated if nil).
func (w *wire) response(r *Response, statsBuf *SessionStats) {
	kind := byte(binKindResp)
	w.u8(&kind)
	if kind != binKindResp {
		w.fail(errFrameKind)
	}
	stats, tags, handoff := r.Stats != nil, len(r.Tags) > 0, r.Handoff != nil
	w.bits("response", &r.OK, &r.Delivered, &r.PayloadOK, &r.Degraded, &stats, &tags, &handoff)
	w.enum("response code", &r.Code, binCodes[:])
	w.str(&r.Error, false)
	w.str(&r.Session, true)
	w.count(&r.Seq)
	w.count(&r.Attempts)
	w.count(&r.NoWakes)
	w.count(&r.ACKsDropped)
	w.f64(&r.SNRdB)
	if w.err != nil {
		return
	}
	if !w.enc {
		r.Stats, r.Tags, r.Handoff = nil, nil, nil
		if stats {
			if statsBuf == nil {
				statsBuf = new(SessionStats)
			}
			r.Stats = statsBuf
		}
	}
	if stats {
		w.stats(r.Stats)
	}
	if tags {
		n := w.items(len(r.Tags), 9) // each tag takes exactly 9 bytes
		if !w.enc && w.err == nil {
			r.Tags = make([]TagResult, n)
		}
		for i := range r.Tags {
			w.tag(&r.Tags[i])
		}
	}
	if handoff {
		if !w.enc {
			r.Handoff = new(HandoffState)
		}
		w.json(r.Handoff)
	}
	w.end()
}

// stats is the stats block's layout: the counts, then the floats.
func (w *wire) stats(st *SessionStats) {
	for _, v := range [...]*int{&st.FramesOffered, &st.FramesDelivered, &st.PacketsSent,
		&st.PayloadBits, &st.ACKsDropped, &st.NoWakes, &st.Backoffs, &st.ConfigSwitches} {
		w.count(v)
	}
	for _, v := range [...]*float64{&st.AirtimeSec, &st.BackoffSec, &st.BitRateBps} {
		w.f64(v)
	}
}

// tag is one entry of the response tags block.
func (w *wire) tag(t *TagResult) {
	w.bits("tag", &t.Delivered, &t.PayloadOK, &t.Woke)
	w.f64(&t.SNRdB)
}

// appendRequestBinary appends req's binary body to dst. Allocation-
// free when dst has capacity.
func appendRequestBinary(dst []byte, req *Request) ([]byte, error) {
	w := wire{enc: true, buf: dst}
	w.request(req)
	return w.buf, w.err
}

// decodeRequestBinary decodes one request body into req, reusing
// req.Payload's capacity and interning the session id through names.
// Allocation-free once the session id is interned and the payload
// buffer has grown to steady state.
func decodeRequestBinary(body []byte, req *Request, names *internTable) error {
	w := wire{buf: body, names: names}
	w.request(req)
	return w.err
}

// appendResponseBinary appends resp's binary body to dst. Allocation-
// free when dst has capacity.
func appendResponseBinary(dst []byte, resp *Response) ([]byte, error) {
	w := wire{enc: true, buf: dst}
	w.response(resp, nil)
	return w.buf, w.err
}

// decodeResponseBinary decodes one response body into resp. When the
// frame carries stats they land in statsBuf (allocated if nil) and
// resp.Stats points there; otherwise resp.Stats is nil.
func decodeResponseBinary(body []byte, resp *Response, names *internTable, statsBuf *SessionStats) error {
	w := wire{buf: body, names: names}
	w.response(resp, statsBuf)
	return w.err
}

// frameReader reads length-prefixed frame bodies into one reused
// buffer per connection. The retained buffer is bounded: a frame
// larger than maxRetainedBuf is read into a one-off allocation that
// is not kept, so a single huge frame cannot pin its memory for the
// connection lifetime. Partial TCP reads (down to one byte at a time)
// are handled by io.ReadFull on the buffered reader.
const maxRetainedBuf = 64 << 10

type frameReader struct {
	br  *bufio.Reader
	le  bool // binary frames are little-endian; JSON legacy big-endian
	buf []byte
}

// read returns the next frame body. The slice is valid until the next
// call.
func (fr *frameReader) read() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	var n uint32
	if fr.le {
		n = binary.LittleEndian.Uint32(hdr[:])
	} else {
		n = binary.BigEndian.Uint32(hdr[:])
	}
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds cap %d", ErrBadRequest, n, MaxFrameBytes)
	}
	body := fr.grab(int(n))
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, err
	}
	return body, nil
}

func (fr *frameReader) grab(n int) []byte {
	if n <= cap(fr.buf) {
		return fr.buf[:n]
	}
	b := make([]byte, n)
	if n <= maxRetainedBuf {
		fr.buf = b
	}
	return b
}

// finishBinaryFrame finalizes a frame built with 4 reserved length
// bytes at the front: buf[0:4] gets the little-endian body length.
func finishBinaryFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}
