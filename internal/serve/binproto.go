package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// Response flag bits.
const (
	binFlagOK        = 1 << 0
	binFlagDelivered = 1 << 1
	binFlagPayloadOK = 1 << 2
	binFlagDegraded  = 1 << 3
	binFlagStats     = 1 << 4
	binFlagTags      = 1 << 5
	binFlagHandoff   = 1 << 6
)

// Per-tag flag bits inside the response tags block.
const (
	binTagDelivered = 1 << 0
	binTagPayloadOK = 1 << 1
	binTagWoke      = 1 << 2
)

// Request extension flag bits (the optional trailing block).
const binExtTrace = 1 << 0

// Response code enum. The wire carries the byte; the structs keep the
// JSON string codes so both protocols share one Response type.
// Append-only: the decoder rejects bytes past the end of this table,
// so inserting (rather than appending) a code would shift every later
// byte and silently mistranslate frames across versions.
var binCodes = [...]string{CodeOK, CodeQueueFull, CodeDraining, CodeDeadline, CodeBadRequest, CodeError, CodeTagDark}

func codeToByte(code string) (byte, error) {
	for i, c := range binCodes {
		if c == code {
			return byte(i), nil
		}
	}
	return 0, fmt.Errorf("serve: response code %q has no binary encoding", code)
}

// Typed decode errors. Everything wraps ErrBadRequest so transports
// can answer a typed bad_request frame and fuzzing can assert the
// error contract.
var (
	errFrameTruncated = fmt.Errorf("%w: binary frame truncated", ErrBadRequest)
	errFrameKind      = fmt.Errorf("%w: unknown binary frame kind", ErrBadRequest)
	errFrameTrailing  = fmt.Errorf("%w: trailing bytes after binary frame", ErrBadRequest)
	errFrameVarint    = fmt.Errorf("%w: malformed varint", ErrBadRequest)
	errFrameRange     = fmt.Errorf("%w: varint field out of range", ErrBadRequest)
	errExtFlags       = fmt.Errorf("%w: unknown request extension flags", ErrBadRequest)
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

// appendCount appends a non-negative int as a uvarint.
func appendCount(dst []byte, v int) ([]byte, error) {
	if v < 0 {
		return dst, fmt.Errorf("serve: negative count %d has no binary encoding", v)
	}
	return binary.AppendUvarint(dst, uint64(v)), nil
}

// takeUvarint pops one uvarint bounded to non-negative int range.
func takeUvarint(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if len(b) == 0 || n == 0 {
			return 0, b, errFrameTruncated
		}
		return 0, b, errFrameVarint
	}
	if v > math.MaxInt32 {
		return 0, b, errFrameRange
	}
	return int(v), b[n:], nil
}

// takeBytes pops one length-prefixed byte field. The returned slice
// aliases b — callers copy or intern before the frame buffer is
// reused.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, b, err
	}
	if n > len(rest) {
		return nil, b, errFrameTruncated
	}
	return rest[:n], rest[n:], nil
}

// takeF64 pops one little-endian float64.
func takeF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, b, errFrameTruncated
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// appendStats appends one stats block: the counts, then the floats.
func appendStats(dst []byte, st *SessionStats) ([]byte, error) {
	var err error
	for _, v := range [...]int{st.FramesOffered, st.FramesDelivered, st.PacketsSent,
		st.PayloadBits, st.ACKsDropped, st.NoWakes, st.Backoffs, st.ConfigSwitches} {
		if dst, err = appendCount(dst, v); err != nil {
			return dst, err
		}
	}
	dst = appendF64(dst, st.AirtimeSec)
	dst = appendF64(dst, st.BackoffSec)
	return appendF64(dst, st.BitRateBps), nil
}

// takeStats pops one stats block into st.
func takeStats(b []byte, st *SessionStats) ([]byte, error) {
	var err error
	for _, p := range [...]*int{&st.FramesOffered, &st.FramesDelivered, &st.PacketsSent,
		&st.PayloadBits, &st.ACKsDropped, &st.NoWakes, &st.Backoffs, &st.ConfigSwitches} {
		if *p, b, err = takeUvarint(b); err != nil {
			return b, err
		}
	}
	for _, p := range [...]*float64{&st.AirtimeSec, &st.BackoffSec, &st.BitRateBps} {
		if *p, b, err = takeF64(b); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendJSON appends v's JSON behind a uvarint length — the handoff
// block of 0x05 requests and bit6 responses.
func appendJSON(dst []byte, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), err
}

// takeJSON pops one appendJSON block into v. Handoff blocks are off
// the zero-allocation path (one rides on a decode response only in
// handoff mode), and the decoded snapshot owns its memory, so the
// caller can retain it past the frame buffer's reuse.
func takeJSON(b []byte, v any) ([]byte, error) {
	body, b, err := takeBytes(b)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return b, fmt.Errorf("%w: handoff block: %v", ErrBadRequest, err)
	}
	return b, nil
}

// appendRequestBinary appends req's binary body to dst. Allocation-
// free when dst has capacity.
func appendRequestBinary(dst []byte, req *Request) ([]byte, error) {
	var kind byte
	for k, op := range binOps {
		if op != "" && op == req.Op {
			kind = byte(k)
		}
	}
	if kind == 0 {
		return dst, fmt.Errorf("serve: op %q has no binary encoding", req.Op)
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(req.Session)))
	dst = append(dst, req.Session...)
	if kind == binKindMultiDecode {
		dst = binary.AppendUvarint(dst, uint64(len(req.Payloads)))
		for _, p := range req.Payloads {
			dst = binary.AppendUvarint(dst, uint64(len(p)))
			dst = append(dst, p...)
		}
	} else if kind == binKindHandoff {
		if req.Handoff == nil {
			return dst, fmt.Errorf("serve: handoff request without handoff state")
		}
		var err error
		if dst, err = appendJSON(dst, req.Handoff); err != nil {
			return dst, err
		}
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(req.Payload)))
		dst = append(dst, req.Payload...)
	}
	dst, err := appendCount(dst, req.TimeoutMs)
	if err != nil {
		return dst, err
	}
	// Optional trailing extension: emitted only for traced requests, so
	// untraced frames stay byte-identical to pre-trace clients (pinned
	// by TestBinaryRequestLegacyBytes).
	if req.Trace != 0 {
		dst = append(dst, binExtTrace)
		dst = binary.LittleEndian.AppendUint64(dst, req.Trace)
	}
	return dst, nil
}

// decodeRequestBinary decodes one request body into req, reusing
// req.Payload's capacity and interning the session id through names.
// Allocation-free once the session id is interned and the payload
// buffer has grown to steady state.
func decodeRequestBinary(body []byte, req *Request, names *internTable) error {
	if len(body) == 0 {
		return errFrameTruncated
	}
	if int(body[0]) >= len(binOps) || binOps[body[0]] == "" {
		return errFrameKind
	}
	req.Op = binOps[body[0]]
	rest := body[1:]
	s, rest, err := takeBytes(rest)
	if err != nil {
		return err
	}
	req.Session = names.get(s)
	// The Request is reused across a connection's frames: reset every
	// op-specific field, so a stale snapshot or payload shape from an
	// earlier frame never leaks into this one.
	req.Handoff, req.Payload, req.Payloads = nil, req.Payload[:0], req.Payloads[:0]
	switch body[0] {
	case binKindHandoff:
		req.Handoff = new(HandoffState)
		if rest, err = takeJSON(rest, req.Handoff); err != nil {
			return err
		}
	case binKindMultiDecode:
		var n int
		if n, rest, err = takeUvarint(rest); err != nil {
			return err
		}
		if n > len(rest) { // each payload takes >= 1 byte of frame
			return errFrameTruncated
		}
		if cap(req.Payloads) < n {
			req.Payloads = make([][]byte, n)
		}
		req.Payloads = req.Payloads[:n]
		for i := 0; i < n; i++ {
			var p []byte
			if p, rest, err = takeBytes(rest); err != nil {
				return err
			}
			req.Payloads[i] = append(req.Payloads[i][:0], p...)
		}
	default:
		var p []byte
		if p, rest, err = takeBytes(rest); err != nil {
			return err
		}
		req.Payload = append(req.Payload, p...)
	}
	req.TimeoutMs, rest, err = takeUvarint(rest)
	if err != nil {
		return err
	}
	// Optional trailing extension block. Absent on legacy (and
	// untraced) frames; when present, the flags byte gates which fixed
	// fields follow, and unknown flag bits are rejected the same way
	// unknown response flags are — a future version's frames must not
	// be silently half-read.
	req.Trace = 0
	if len(rest) != 0 {
		ext := rest[0]
		rest = rest[1:]
		if ext&^byte(binExtTrace) != 0 {
			return errExtFlags
		}
		if ext&binExtTrace != 0 {
			if len(rest) < 8 {
				return errFrameTruncated
			}
			req.Trace = binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
		}
		if len(rest) != 0 {
			return errFrameTrailing
		}
	}
	return nil
}

// appendResponseBinary appends resp's binary body to dst. Allocation-
// free when dst has capacity.
func appendResponseBinary(dst []byte, resp *Response) ([]byte, error) {
	var flags byte
	if resp.OK {
		flags |= binFlagOK
	}
	if resp.Delivered {
		flags |= binFlagDelivered
	}
	if resp.PayloadOK {
		flags |= binFlagPayloadOK
	}
	if resp.Degraded {
		flags |= binFlagDegraded
	}
	if resp.Stats != nil {
		flags |= binFlagStats
	}
	if len(resp.Tags) > 0 {
		flags |= binFlagTags
	}
	if resp.Handoff != nil {
		flags |= binFlagHandoff
	}
	code, err := codeToByte(resp.Code)
	if err != nil {
		return dst, err
	}
	dst = append(dst, binKindResp, flags, code)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Error)))
	dst = append(dst, resp.Error...)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Session)))
	dst = append(dst, resp.Session...)
	for _, v := range [...]int{resp.Seq, resp.Attempts, resp.NoWakes, resp.ACKsDropped} {
		if dst, err = appendCount(dst, v); err != nil {
			return dst, err
		}
	}
	dst = appendF64(dst, resp.SNRdB)
	if resp.Stats != nil {
		if dst, err = appendStats(dst, resp.Stats); err != nil {
			return dst, err
		}
	}
	if len(resp.Tags) > 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Tags)))
		for _, t := range resp.Tags {
			var tf byte
			if t.Delivered {
				tf |= binTagDelivered
			}
			if t.PayloadOK {
				tf |= binTagPayloadOK
			}
			if t.Woke {
				tf |= binTagWoke
			}
			dst = append(dst, tf)
			dst = appendF64(dst, t.SNRdB)
		}
	}
	if resp.Handoff != nil {
		if dst, err = appendJSON(dst, resp.Handoff); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeResponseBinary decodes one response body into resp. When the
// frame carries stats they land in statsBuf (allocated if nil) and
// resp.Stats points there; otherwise resp.Stats is nil. Error strings
// on the happy path are empty and allocate nothing.
func decodeResponseBinary(body []byte, resp *Response, names *internTable, statsBuf *SessionStats) error {
	if len(body) < 3 {
		return errFrameTruncated
	}
	if body[0] != binKindResp {
		return errFrameKind
	}
	flags := body[1]
	if flags&^(binFlagOK|binFlagDelivered|binFlagPayloadOK|binFlagDegraded|binFlagStats|binFlagTags|binFlagHandoff) != 0 {
		// Flag bits this version does not define would be silently
		// dropped on re-encode; reject them so version skew surfaces as
		// a typed error instead of data loss.
		return fmt.Errorf("%w: unknown response flag bits %#x", ErrBadRequest, flags)
	}
	if int(body[2]) >= len(binCodes) {
		return fmt.Errorf("%w: unknown response code byte %d", ErrBadRequest, body[2])
	}
	resp.OK = flags&binFlagOK != 0
	resp.Delivered = flags&binFlagDelivered != 0
	resp.PayloadOK = flags&binFlagPayloadOK != 0
	resp.Degraded = flags&binFlagDegraded != 0
	resp.Code = binCodes[body[2]]
	rest := body[3:]
	e, rest, err := takeBytes(rest)
	if err != nil {
		return err
	}
	resp.Error = string(e) // empty on the happy path: no allocation
	s, rest, err := takeBytes(rest)
	if err != nil {
		return err
	}
	resp.Session = names.get(s)
	for _, p := range [...]*int{&resp.Seq, &resp.Attempts, &resp.NoWakes, &resp.ACKsDropped} {
		if *p, rest, err = takeUvarint(rest); err != nil {
			return err
		}
	}
	if resp.SNRdB, rest, err = takeF64(rest); err != nil {
		return err
	}
	resp.Stats = nil
	if flags&binFlagStats != 0 {
		if statsBuf == nil {
			statsBuf = &SessionStats{}
		}
		if rest, err = takeStats(rest, statsBuf); err != nil {
			return err
		}
		resp.Stats = statsBuf
	}
	resp.Tags = nil
	if flags&binFlagTags != 0 {
		var n int
		if n, rest, err = takeUvarint(rest); err != nil {
			return err
		}
		if n > len(rest)/9 { // each tag takes exactly 9 bytes
			return errFrameTruncated
		}
		resp.Tags = make([]TagResult, n)
		for i := range resp.Tags {
			tf := rest[0]
			rest = rest[1:]
			if tf&^byte(binTagDelivered|binTagPayloadOK|binTagWoke) != 0 {
				return fmt.Errorf("%w: unknown tag flag bits %#x", ErrBadRequest, tf)
			}
			t := &resp.Tags[i]
			t.Delivered = tf&binTagDelivered != 0
			t.PayloadOK = tf&binTagPayloadOK != 0
			t.Woke = tf&binTagWoke != 0
			if t.SNRdB, rest, err = takeF64(rest); err != nil {
				return err
			}
		}
	}
	resp.Handoff = nil
	if flags&binFlagHandoff != 0 {
		resp.Handoff = new(HandoffState)
		if rest, err = takeJSON(rest, resp.Handoff); err != nil {
			return err
		}
	}
	if len(rest) != 0 {
		return errFrameTrailing
	}
	return nil
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

// appendFrameHeader finalizes a frame built with 4 reserved length
// bytes at the front: buf[0:4] gets the little-endian body length.
func finishBinaryFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}
