// Package serve turns the repository's one-shot link simulator into
// the long-running reader service the paper describes (Sec. 1, 5): a
// BackFi AP is not a lab harness that runs one sweep and exits — it
// decodes many tag uplinks at WiFi rates, continuously, while serving
// its normal traffic. The daemon accepts decode jobs over a simple
// length-prefixed TCP protocol, shards session state by session id
// across a fixed worker pool, batches queued jobs into the
// deterministic parallel engine for the DSP hot path, and applies
// production serving discipline: bounded queues with explicit typed
// backpressure, per-job deadlines, graceful drain on shutdown, and
// panic isolation per connection. Zero dependencies, matching
// internal/obs. See DESIGN.md §5e for the wire protocol, sharding and
// determinism contract.
package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"backfi/internal/energy"
)

// Wire format: every message is a frame — a 4-byte big-endian length
// prefix followed by that many bytes of JSON. JSON keeps the protocol
// inspectable with nc/jq and zero-dependency; the length prefix keeps
// framing trivial and lets the server bound memory per message.
const (
	// MaxFrameBytes bounds one frame's JSON body. Requests beyond it
	// are rejected before allocation; the bound dwarfs any real decode
	// job (tag payloads are tens to hundreds of bytes).
	MaxFrameBytes = 1 << 20
)

// Request operations.
const (
	// OpDecode submits one application frame for a session: the daemon
	// runs the full ARQ exchange on that session's link and reports the
	// outcome.
	OpDecode = "decode"
	// OpMultiDecode submits one payload per member of a session's
	// multi-tag group: the daemon lights the whole group with one
	// excitation and jointly decodes the colliding reflections
	// (DESIGN.md §5i). The group size is fixed by the session's first
	// mdecode (len(payloads)); later jobs must match it.
	OpMultiDecode = "mdecode"
	// OpStats returns a session's accumulated SessionStats. It routes
	// through the session's shard queue like a decode, so it observes a
	// consistent snapshot ordered against the session's decodes.
	OpStats = "stats"
	// OpPing is a connection liveness check answered inline.
	OpPing = "ping"
	// OpHandoff installs a session snapshot taken on another reader
	// node (DESIGN.md §5j): the daemon builds a fresh session, applies
	// the snapshot's fault-timeline profile, copies in its channel,
	// controller, watchdog and energy state, and the session's decode
	// stream continues byte-identically from where the origin node left
	// off. Requires Config.Handoff on the server.
	OpHandoff = "handoff"
)

// Response codes. CodeOK accompanies OK=true; every other code is a
// typed rejection or failure mapped to the Err* sentinels below.
const (
	CodeOK         = "ok"
	CodeQueueFull  = "queue_full"
	CodeDraining   = "draining"
	CodeDeadline   = "deadline_exceeded"
	CodeBadRequest = "bad_request"
	CodeError      = "error"
	// CodeTagDark is the energy-aware scheduler's typed backpressure
	// (DESIGN.md §5k): the session's tag has run its supercap below the
	// wake threshold and the poll was answered without spending a
	// decode. Distinct from CodeError — the service is healthy and the
	// session's decode stream is untouched; the tag just has no energy.
	// The client's circuit breaker deliberately does not count it as a
	// hard failure.
	CodeTagDark = "tag_dark"
)

// Typed serving errors. The backpressure contract: a full shard queue
// rejects immediately with ErrQueueFull — it never blocks the
// connection and never panics — and a draining server rejects new work
// with ErrDraining while completing what it already admitted. Check
// with errors.Is on the client side (Response.Err returns these).
var (
	ErrQueueFull  = errors.New("serve: shard queue full")
	ErrDraining   = errors.New("serve: server draining")
	ErrDeadline   = errors.New("serve: job deadline exceeded")
	ErrBadRequest = errors.New("serve: bad request")
	ErrTagDark    = errors.New("serve: tag dark — supercap below wake threshold")
)

// Request is one client message.
type Request struct {
	// Op is the operation: OpDecode, OpStats, or OpPing.
	Op string `json:"op"`
	// Session names the long-lived session this job belongs to. A
	// session id always hashes to the same shard, and its seed stream
	// derives from the id alone, so a session's decode results are
	// byte-identical regardless of shard count or interleaving with
	// other sessions.
	Session string `json:"session,omitempty"`
	// Payload is the application frame to deliver (OpDecode).
	Payload []byte `json:"payload,omitempty"`
	// Payloads carries one frame per multi-tag group member
	// (OpMultiDecode): Payloads[k] is what polled tag k backscatters
	// into the shared slot.
	Payloads [][]byte `json:"payloads,omitempty"`
	// TimeoutMs overrides the server's default per-job deadline,
	// measured from admission. 0 keeps the server default.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Trace propagates the client's per-frame trace id (DESIGN.md
	// §5h): when non-zero, the server joins its decode-stage spans to
	// this id instead of making its own sampling decision. Zero (the
	// untraced case) keeps the wire bytes identical to pre-trace
	// clients on both protocols — omitempty here, an optional trailing
	// extension block in the binary framing. Responses deliberately
	// carry no trace field: the response stream stays byte-identical
	// with tracing off, on, or sampled.
	Trace uint64 `json:"trace,omitempty"`
	// Handoff carries the session snapshot to install (OpHandoff).
	Handoff *HandoffState `json:"handoff,omitempty"`
}

// Response is one server reply. It deliberately carries no wall-clock
// quantities: a session's response stream must be byte-identical run
// to run (the §5e determinism contract), so latency is the client's to
// measure.
type Response struct {
	OK   bool   `json:"ok"`
	Code string `json:"code"`
	// Error is the human-readable failure detail for non-OK codes.
	Error string `json:"error,omitempty"`
	// Session / Seq echo the job's session and its 1-based position in
	// that session's decode order.
	Session string `json:"session,omitempty"`
	Seq     int    `json:"seq,omitempty"`

	// Decode outcome (OpDecode): Delivered is the end-to-end ARQ
	// verdict, PayloadOK whether the reader decoded the last attempt
	// (they disagree exactly when the final attempt's ACK was lost).
	Delivered bool `json:"delivered,omitempty"`
	PayloadOK bool `json:"payload_ok,omitempty"`
	// Attempts / NoWakes / ACKsDropped count this frame's air
	// transmissions, wake misses, and lost ACKs.
	Attempts    int `json:"attempts,omitempty"`
	NoWakes     int `json:"no_wakes,omitempty"`
	ACKsDropped int `json:"acks_dropped,omitempty"`
	// SNRdB is the last attempt's measured post-MRC symbol SNR.
	SNRdB float64 `json:"snr_db,omitempty"`
	// Degraded reports that the SIC-health watchdog currently holds
	// this session in degraded mode (forced-robust configuration).
	// Absent unless the watchdog is enabled and tripped — legacy
	// response streams are byte-identical.
	Degraded bool `json:"degraded,omitempty"`

	// Stats is the session summary (OpStats).
	Stats *SessionStats `json:"stats,omitempty"`

	// Tags holds per-tag outcomes of a multi-tag slot (OpMultiDecode),
	// aligned with the request's Payloads. Absent on every other op, so
	// single-tag response streams are byte-identical to legacy servers.
	Tags []TagResult `json:"tags,omitempty"`

	// Handoff is the session's post-poll snapshot, attached to every
	// successful decode and every tag_dark answer when the server runs
	// with Config.Handoff. A client that keeps only the latest snapshot
	// can hand the session to any other reader node and resume its
	// decode stream byte-identically (DESIGN.md §5j). Absent unless
	// handoff is enabled, so legacy response streams are unchanged.
	Handoff *HandoffState `json:"handoff,omitempty"`
}

// HandoffVersion is the snapshot format version. A receiver rejects
// snapshots from a different version instead of guessing — a silent
// format skew would corrupt a decode stream rather than fail loudly.
const HandoffVersion = 2

// HandoffState is the complete portable state of one serving session
// (DESIGN.md §5j): the session's actual values, so an install copies
// them in O(1) at any session age. Every stochastic draw derives from
// (session seed, attempt ordinal), so no RNG innards travel; the
// evolved channel taps, the counters and, in energy mode, the tag's
// tank do. The receiver re-derives the fault epoch from the timeline
// cursor, and the tag configuration from the controller index, or from
// the degraded flag for fixed sessions. Both protocols carry it as
// JSON.
type HandoffState struct {
	// Version is the snapshot format version (HandoffVersion).
	Version int `json:"v"`
	// Attempts is the link-level attempt ordinal: how many times the
	// session has keyed the channel. It pins every RNG stream's
	// position.
	Attempts int `json:"attempts"`
	// Seq is the session's decode sequence number at snapshot time; the
	// receiver continues numbering from here so the merged response
	// stream has no duplicate or missing Seq.
	Seq int `json:"seq"`
	// TimelineCur is the session's fault-timeline cursor. The receiver
	// checks it against its own scripted timeline at the snapshot's
	// frame count — a mismatch means the two nodes run different
	// timelines — and applies the cursor's profile once.
	TimelineCur int `json:"timeline_cur,omitempty"`
	// HEnv, HF and HB are the session's evolved channel taps, each a
	// run of little-endian IEEE-754 (real, imaginary) float64 pairs
	// (wireTaps). JSON carries them as base64: bit-exact, and under
	// half the bytes and a fraction of the parse work of decimal pairs
	// on a block that rides on every answer.
	HEnv []byte `json:"h_env"`
	HF   []byte `json:"h_f"`
	HB   []byte `json:"h_b"`
	// Stats is the session's accumulated statistics.
	Stats SessionStats `json:"stats"`
	// Ctrl is the rate-adaptation controller state; present exactly
	// when the origin session was adaptive.
	Ctrl *CtrlState `json:"ctrl,omitempty"`
	// Energy is the energy scheduler's state; present exactly when the
	// origin node runs Config.Energy.
	Energy *EnergyState `json:"energy,omitempty"`
	// WDHot / WDCool / Degraded carry the SIC-health watchdog streaks
	// and mode.
	WDHot    int  `json:"wd_hot,omitempty"`
	WDCool   int  `json:"wd_cool,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
}

// EnergyState is a session's energy-aware scheduler state (DESIGN.md
// §5k): the tag's tank, the dark-poll streak and the virtual seconds
// its probe backoff has stood for, and the liveness EWMA.
type EnergyState struct {
	Tank       energy.TankSnapshot `json:"tank"`
	DarkStreak int                 `json:"dark_streak,omitempty"`
	DarkSec    float64             `json:"dark_sec,omitempty"`
	Liveness   float64             `json:"liveness"`
}

// Validate checks the snapshot's invariants that do not need a server
// configuration: version match, non-negative counters and energy
// values in range. The install path re-validates against the receiving
// server's placement, ladder and timeline.
func (h *HandoffState) Validate() error {
	if h == nil {
		return fmt.Errorf("%w: handoff state missing", ErrBadRequest)
	}
	if h.Version != HandoffVersion {
		return fmt.Errorf("%w: handoff version %d (want %d)", ErrBadRequest, h.Version, HandoffVersion)
	}
	if h.Attempts < 0 || h.Seq < 0 || h.TimelineCur < 0 || h.WDHot < 0 || h.WDCool < 0 {
		return fmt.Errorf("%w: negative handoff counter", ErrBadRequest)
	}
	if len(h.HEnv)%16 != 0 || len(h.HF)%16 != 0 || len(h.HB)%16 != 0 {
		return fmt.Errorf("%w: handoff taps are not whole float64 pairs", ErrBadRequest)
	}
	if h.Stats.FramesOffered < 0 || h.Seq > h.Stats.FramesOffered {
		return fmt.Errorf("%w: handoff seq %d exceeds frames offered %d", ErrBadRequest, h.Seq, h.Stats.FramesOffered)
	}
	if e := h.Energy; e != nil && (e.DarkStreak < 0 || !(e.DarkSec >= 0 && e.DarkSec <= math.MaxFloat64) || !(e.Liveness >= 0 && e.Liveness <= 1)) {
		return fmt.Errorf("%w: handoff energy state out of range", ErrBadRequest)
	}
	return nil
}

// wireTaps / coreTaps convert channel taps to and from their wire
// float64 pairs; coreTaps reads whole pairs only (Validate checks).
func wireTaps(t []complex128) []byte {
	out := make([]byte, 0, 16*len(t))
	for _, v := range t {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(v)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(v)))
	}
	return out
}

func coreTaps(b []byte) []complex128 {
	out := make([]complex128, len(b)/16)
	for i := range out {
		re, im := binary.LittleEndian.Uint64(b[16*i:]), binary.LittleEndian.Uint64(b[16*i+8:])
		out[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
	}
	return out
}

// CtrlState mirrors adapt.State on the wire: the rate controller's
// complete decision state, so the receiving node's controller makes the
// same next decision the origin's would have. Its fields match
// adapt.State one for one, so the two convert directly.
type CtrlState struct {
	Index       int     `json:"idx"`
	Ceiling     int     `json:"ceiling"`
	Attempts    int     `json:"attempts,omitempty"`
	ConsecFail  int     `json:"consec_fail,omitempty"`
	ConsecGood  int     `json:"consec_good,omitempty"`
	SinceSwitch int     `json:"since_switch,omitempty"`
	EWMABER     float64 `json:"ewma_ber,omitempty"`
	EWMASet     bool    `json:"ewma_set,omitempty"`
	FloorDBm    float64 `json:"floor_dbm,omitempty"`
	FloorSet    bool    `json:"floor_set,omitempty"`
}

// TagResult is one group member's outcome within a jointly decoded
// slot.
type TagResult struct {
	// Delivered reports the member's payload round-tripped; PayloadOK
	// mirrors it for multi-tag slots (no per-member ARQ).
	Delivered bool `json:"delivered"`
	PayloadOK bool `json:"payload_ok"`
	// Woke reports the tag's wake-detector outcome for this slot.
	Woke bool `json:"woke"`
	// SNRdB is the member's post-MRC symbol SNR after the layers above
	// it were cancelled.
	SNRdB float64 `json:"snr_db"`
}

// SessionStats mirrors core.SessionStats on the wire.
type SessionStats struct {
	FramesOffered   int     `json:"frames_offered"`
	FramesDelivered int     `json:"frames_delivered"`
	PacketsSent     int     `json:"packets_sent"`
	PayloadBits     int     `json:"payload_bits"`
	AirtimeSec      float64 `json:"airtime_sec"`
	ACKsDropped     int     `json:"acks_dropped"`
	NoWakes         int     `json:"no_wakes"`
	// Robustness-era additions, all omitempty: a server running without
	// backoff, adaptation, or watchdog emits byte-identical stats.
	Backoffs       int     `json:"backoffs,omitempty"`
	BackoffSec     float64 `json:"backoff_sec,omitempty"`
	ConfigSwitches int     `json:"config_switches,omitempty"`
	// BitRateBps is the session's current tag bit rate. Reported only
	// when the serving configuration can change it (adaptation or
	// watchdog enabled); otherwise it is the static template rate the
	// client already knows.
	BitRateBps float64 `json:"bit_rate_bps,omitempty"`
}

// Err maps a response to its typed error: nil for OK responses, the
// Err* sentinels for typed rejections, and a generic error otherwise.
func (r *Response) Err() error {
	switch r.Code {
	case CodeOK:
		return nil
	case CodeQueueFull:
		return ErrQueueFull
	case CodeDraining:
		return ErrDraining
	case CodeDeadline:
		return ErrDeadline
	case CodeTagDark:
		return ErrTagDark
	case CodeBadRequest:
		return fmt.Errorf("%w: %s", ErrBadRequest, r.Error)
	default:
		return fmt.Errorf("serve: %s", r.Error)
	}
}

// wireCodec is one connection's wire protocol, shared by the server's
// connection loop and the client's exchange: the legacy JSON framing
// (big-endian length, JSON body) when bin is false, the binary framing
// (DESIGN.md §5g: little-endian length, binary body) when true. A
// binary codec interns session ids and, on the server, decodes every
// request into one reused Request; a JSON codec unmarshals each
// request into a fresh one.
type wireCodec struct {
	bin   bool
	names internTable
	req   Request
}

// reader returns a frame reader for the protocol's length prefix.
func (c *wireCodec) reader(br *bufio.Reader) *frameReader {
	return &frameReader{br: br, le: c.bin}
}

// finishFrame writes the body length into the 4 bytes reserved at the
// front of frame.
func (c *wireCodec) finishFrame(frame []byte) []byte {
	if c.bin {
		return finishBinaryFrame(frame)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// decodeRequest decodes one request body. A binary request is valid
// until the next call.
func (c *wireCodec) decodeRequest(body []byte) (*Request, error) {
	if c.bin {
		return &c.req, decodeRequestBinary(body, &c.req, &c.names)
	}
	req := new(Request)
	if err := json.Unmarshal(body, req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return req, nil
}

// appendResponse appends resp's body to dst.
func (c *wireCodec) appendResponse(dst []byte, resp *Response) ([]byte, error) {
	if c.bin {
		return appendResponseBinary(dst, resp)
	}
	// Marshal a copy, so resp itself never escapes to the heap on the
	// binary path.
	r := *resp
	body, err := json.Marshal(&r)
	return append(dst, body...), err
}

// appendRequest appends req's body to dst.
func (c *wireCodec) appendRequest(dst []byte, req *Request) ([]byte, error) {
	if c.bin {
		return appendRequestBinary(dst, req)
	}
	body, err := json.Marshal(req)
	return append(dst, body...), err
}

// decodeResponse decodes one response body into resp.
func (c *wireCodec) decodeResponse(body []byte, resp *Response) error {
	if c.bin {
		return decodeResponseBinary(body, resp, &c.names, nil)
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}
