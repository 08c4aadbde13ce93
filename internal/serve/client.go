package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"backfi/internal/obs"
)

// Client-side resilience errors. ErrConnBroken wraps the underlying
// transport failure (errors.Is still matches io.EOF etc. through it);
// it means the request may or may not have executed server-side, so a
// caller that retries gets at-least-once semantics — fine for decode
// jobs, whose per-session results are deterministic and idempotent to
// re-derive, but worth knowing. ErrBreakerOpen is a client-local fast
// failure: the session's circuit breaker is open and no bytes were
// sent. ErrClientClosed reports use after Close.
var (
	ErrConnBroken   = errors.New("serve: connection broken")
	ErrBreakerOpen  = errors.New("serve: circuit breaker open")
	ErrClientClosed = errors.New("serve: client closed")
)

// ClientConfig tunes the self-healing client. The zero value
// reproduces the original fragile client: no I/O deadlines, no
// reconnection, no circuit breaking.
type ClientConfig struct {
	// Addr is the daemon address (required for DialClient).
	Addr string
	// IOTimeout bounds each frame write and each frame read. 0 means no
	// deadline (a hung server hangs the call).
	IOTimeout time.Duration
	// MaxRedials is how many reconnect attempts one call may spend after
	// its connection breaks. 0 disables reconnection: a broken
	// connection fails the call with ErrConnBroken and stays broken.
	MaxRedials int
	// RedialBase / RedialMax shape the exponential redial backoff:
	// attempt k waits jitter(RedialBase·2^(k−1)) capped at RedialMax.
	// Defaults 50ms / 2s when zero.
	RedialBase time.Duration
	RedialMax  time.Duration
	// JitterSeed seeds the deterministic jitter stream (each delay is
	// drawn uniformly from [d/2, d]). Two clients with the same seed
	// back off identically — the chaos harness relies on this.
	JitterSeed int64
	// BreakerThreshold opens a session's circuit after that many
	// consecutive hard failures (transport breaks or CodeError
	// responses; typed backpressure does not count — the server is
	// healthy, just busy). 0 disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects calls before
	// allowing one half-open probe. Default 1s when zero.
	BreakerCooldown time.Duration
	// Proto selects the wire protocol: "" or "json" speaks the legacy
	// length-prefixed JSON frames; "binary" negotiates the zero-copy
	// binary framing (DESIGN.md §5g) on every (re)connect. The two
	// protocols carry the same Request/Response contents — a session's
	// decode stream is byte-identical under either.
	Proto string
	// Tracer enables client-side trace origination (DESIGN.md §5h):
	// each decode head-samples on (session id, per-session frame
	// index) — the same deterministic decision the server would make —
	// and propagates the sampled id in the request so the server joins
	// the trace instead of starting its own. Nil disables: requests
	// carry no trace id and the wire bytes are unchanged.
	Tracer *obs.Tracer
	// Flight receives the client's resilience events — broken
	// connections, successful redials, breaker transitions — so a
	// post-incident dump shows both sides of the story. Nil disables.
	Flight *obs.FlightRecorder
	// SessionTTL reclaims the client's own per-session bookkeeping
	// (breaker state, trace frame index, cached handoff snapshot) for
	// sessions idle longer than this, mirroring the server's
	// Config.SessionTTL policy: a client churning through many
	// short-lived session ids holds memory proportional to the live
	// set, not the lifetime id count. The sweep runs inline on calls
	// (no background goroutine), at most once per TTL/2. Eviction
	// forgets breaker state the same way the server forgets the
	// session — a re-used id starts with a closed breaker and frame
	// index zero. 0 disables (entries live for the client lifetime,
	// the pre-§5j behavior).
	SessionTTL time.Duration
}

// ClientHealth is a snapshot of the client's self-healing activity.
type ClientHealth struct {
	// Dials counts successful connection establishments (including the
	// first); Redials the successful re-establishments among them.
	Dials, Redials int
	// BrokenConns counts connections torn down after an I/O failure.
	BrokenConns int
	// BreakerOpens counts closed→open transitions across all sessions;
	// BreakerFastFails counts calls rejected locally by an open circuit.
	BreakerOpens, BreakerFastFails int
	// OpenBreakers is the number of sessions currently open or half-open.
	OpenBreakers int
}

// newJitter builds the deterministic backoff-jitter stream.
func newJitter(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// breaker is one session's circuit. States: closed (normal), open
// (fast-fail until cooldown elapses), half-open (one probe in flight).
type breaker struct {
	fails    int // consecutive hard failures while closed
	open     bool
	openedAt time.Time
	probing  bool // half-open probe admitted, awaiting verdict
}

// clientSession is the client's per-session bookkeeping: the circuit
// breaker, the trace head-sampling frame index, and the latest handoff
// snapshot a decode response carried. One map entry per tracked id,
// reclaimed by the SessionTTL sweep — keeping all three in one entry
// is what makes the idle-eviction policy cover all of them (the
// pre-§5j client kept breakers and frame indexes in two maps, neither
// of which ever shrank under session churn).
type clientSession struct {
	br       breaker
	frame    int // per-session decode/mdecode index for head sampling
	handoff  *HandoffState
	lastUsed time.Time // stamped only when SessionTTL > 0
}

// Client is a connection to a reader daemon. Calls are synchronous
// (one request in flight per client, matching the server's
// per-connection ordering that keeps a session's decode stream
// deterministic); open one client per concurrent session. Safe for
// concurrent use — calls serialize on an internal lock.
//
// With a non-zero ClientConfig the client self-heals: every frame
// write and read carries a deadline, a broken connection is redialed
// with seeded-jitter exponential backoff, and a per-session circuit
// breaker sheds calls to sessions that keep failing hard instead of
// hammering a struggling daemon.
type Client struct {
	mu     sync.Mutex
	cfg    ClientConfig
	conn   net.Conn // nil when broken
	br     *bufio.Reader
	bw     *bufio.Writer
	closed bool

	// Wire state: the protocol codec, the frame reader with its bounded
	// reused body buffer, and the reused encode buffer.
	codec wireCodec
	fr    *frameReader
	wbuf  []byte

	jitter *rand.Rand // seeded; guarded by mu
	// sessions holds per-session state (breaker, trace index, cached
	// handoff), swept by the SessionTTL policy. Entries are created
	// only when a feature needs them (breaker, tracer, or a handoff
	// snapshot arriving), so a zero-config client stays map-empty.
	sessions  map[string]*clientSession
	lastSweep time.Time
	health    ClientHealth

	// Injectable for deterministic tests; real clock/sleep otherwise.
	now   func() time.Time
	sleep func(time.Duration)
	dial  func(addr string) (net.Conn, error)
}

// Dial connects to a daemon at addr with the zero (legacy, fragile)
// configuration. Use DialClient for the self-healing behavior.
func Dial(addr string) (*Client, error) {
	return DialClient(ClientConfig{Addr: addr})
}

// DialClient connects with an explicit configuration.
func DialClient(cfg ClientConfig) (*Client, error) {
	switch cfg.Proto {
	case "", "json", "binary":
	default:
		return nil, fmt.Errorf("serve: unknown protocol %q (want json or binary)", cfg.Proto)
	}
	if cfg.RedialBase <= 0 {
		cfg.RedialBase = 50 * time.Millisecond
	}
	if cfg.RedialMax <= 0 {
		cfg.RedialMax = 2 * time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	c := &Client{
		cfg:      cfg,
		codec:    wireCodec{bin: cfg.Proto == "binary"},
		jitter:   newJitter(cfg.JitterSeed),
		sessions: make(map[string]*clientSession),
		now:      time.Now,
		sleep:    time.Sleep,
		dial:     func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect establishes the connection, negotiating the binary protocol
// when configured (the handshake reruns on every redial). Caller holds
// mu (or the client is not yet shared).
func (c *Client) connect() error {
	conn, err := c.dial(c.cfg.Addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.bw = bufio.NewWriter(conn)
	if c.codec.bin {
		if err := c.negotiate(); err != nil {
			conn.Close()
			c.conn, c.br, c.bw = nil, nil, nil
			return err
		}
	}
	c.fr = c.codec.reader(c.br)
	c.health.Dials++
	return nil
}

// negotiate runs the binary preamble handshake: send ours, read the
// server's echo, and require version agreement. Caller holds mu.
func (c *Client) negotiate() error {
	if c.cfg.IOTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.cfg.IOTimeout)); err != nil {
			return err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(binPreamble[:]); err != nil {
		return fmt.Errorf("serve: binary handshake write: %w", err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(c.br, ack[:]); err != nil {
		return fmt.Errorf("serve: binary handshake read: %w", err)
	}
	if ack[0] != binPreamble[0] || ack[1] != binPreamble[1] || ack[2] != binPreamble[2] {
		return errors.New("serve: peer does not speak the binary protocol")
	}
	if ack[3] != binVersion {
		return fmt.Errorf("serve: binary protocol version skew: server v%d, client v%d", ack[3], binVersion)
	}
	return nil
}

// breakConnLocked tears down a connection the client believes is bad.
func (c *Client) breakConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.br, c.bw, c.fr = nil, nil, nil
		c.health.BrokenConns++
		c.cfg.Flight.Record(obs.FlightConnBroken, "", c.cfg.Addr, 0)
	}
}

// BreakConn forcibly severs the underlying connection (the chaos
// harness's connection-kill fault). The client is not closed: the next
// call heals through the redial path.
func (c *Client) BreakConn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.breakConnLocked()
}

// Health returns a snapshot of the client's self-healing counters.
func (c *Client) Health() ClientHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health
	for _, cs := range c.sessions {
		if cs.br.open {
			h.OpenBreakers++
		}
	}
	return h
}

// TrackedSessions reports how many session ids the client currently
// holds state for — the quantity the SessionTTL sweep bounds.
func (c *Client) TrackedSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sessions)
}

// redialDelay returns the backoff before redial attempt k ≥ 1:
// exponential in k, capped, with deterministic jitter drawn from the
// seeded stream (uniform in [d/2, d], so backoff never degenerates to
// zero but two clients with the same seed still agree).
func (c *Client) redialDelay(attempt int) time.Duration {
	d := c.cfg.RedialBase << uint(attempt-1)
	if max := c.cfg.RedialMax; d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(c.jitter.Int63n(int64(half)+1))
}

// track returns (creating if need or a configured feature wants one)
// the session's state entry and stamps its idle clock. Returns nil for
// sessionless calls (ping) and when nothing wants per-session state —
// the zero-config client keeps an empty map. Caller holds mu.
func (c *Client) track(session string, need bool) *clientSession {
	if session == "" {
		return nil
	}
	cs := c.sessions[session]
	if cs == nil {
		if !need && c.cfg.BreakerThreshold <= 0 && c.cfg.Tracer == nil {
			return nil
		}
		cs = &clientSession{}
		c.sessions[session] = cs
	}
	if c.cfg.SessionTTL > 0 {
		cs.lastUsed = c.now()
	}
	return cs
}

// sweepSessions reclaims session entries idle past the TTL, at most
// once per TTL/2 so a busy client pays O(sessions) only occasionally.
// Runs inline under mu — no background goroutine to leak or race.
func (c *Client) sweepSessions() {
	ttl := c.cfg.SessionTTL
	if ttl <= 0 {
		return
	}
	now := c.now()
	if now.Sub(c.lastSweep) < ttl/2 {
		return
	}
	c.lastSweep = now
	for id, cs := range c.sessions {
		if now.Sub(cs.lastUsed) >= ttl {
			delete(c.sessions, id)
		}
	}
}

// breakerAllow gates a call on the session's circuit. A nil entry
// (ping, or breaking disabled) bypasses entirely.
func (c *Client) breakerAllow(cs *clientSession, session string) error {
	if c.cfg.BreakerThreshold <= 0 || cs == nil {
		return nil
	}
	b := &cs.br
	if !b.open {
		return nil
	}
	if c.now().Sub(b.openedAt) < c.cfg.BreakerCooldown || b.probing {
		c.health.BreakerFastFails++
		return fmt.Errorf("%w: session %q cooling down", ErrBreakerOpen, session)
	}
	b.probing = true // half-open: admit exactly this probe
	return nil
}

// breakerRecord feeds a call's verdict back into the session's
// circuit. Hard failures are transport breaks and CodeError responses;
// typed backpressure and bad requests are the server answering
// healthily and count as successes here.
func (c *Client) breakerRecord(cs *clientSession, session string, hardFail bool) {
	if c.cfg.BreakerThreshold <= 0 || cs == nil {
		return
	}
	b := &cs.br
	switch {
	case !hardFail:
		if b.open {
			c.cfg.Flight.Record(obs.FlightBreakerClose, session, "half-open probe succeeded", 0)
		}
		b.fails, b.open, b.probing = 0, false, false
	case b.open:
		// Failed half-open probe (or racing failure): restart cooldown.
		b.openedAt, b.probing = c.now(), false
	default:
		b.fails++
		if b.fails >= c.cfg.BreakerThreshold {
			b.open, b.openedAt, b.probing = true, c.now(), false
			c.health.BreakerOpens++
			c.cfg.Flight.Record(obs.FlightBreakerOpen, session,
				fmt.Sprintf("%d consecutive hard failures", b.fails), 0)
		}
	}
}

// exchange runs one framed round trip on the current connection,
// applying write and read deadlines. Caller holds mu.
func (c *Client) exchange(req *Request) (*Response, error) {
	if c.cfg.IOTimeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.cfg.IOTimeout)); err != nil {
			return nil, err
		}
	}
	b, err := c.codec.appendRequest(append(c.wbuf[:0], 0, 0, 0, 0), req)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal frame: %w", err)
	}
	if len(b)-4 > MaxFrameBytes {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds cap %d", len(b)-4, MaxFrameBytes)
	}
	c.wbuf = b
	if _, err := c.bw.Write(c.codec.finishFrame(b)); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if c.cfg.IOTimeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.cfg.IOTimeout)); err != nil {
			return nil, err
		}
	}
	body, err := c.fr.read()
	if err == nil {
		resp := new(Response)
		if err = c.codec.decodeResponse(body, resp); err == nil {
			return resp, nil
		}
	}
	return nil, fmt.Errorf("serve: read response: %w", err)
}

// do runs one request/response round trip, healing a broken connection
// within the redial budget. A transport failure surfaces as
// ErrConnBroken (joined with the underlying error); because the
// request may have executed before the connection died, retries across
// ErrConnBroken are at-least-once.
func (c *Client) do(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	c.sweepSessions()
	cs := c.track(req.Session, false)
	if err := c.breakerAllow(cs, req.Session); err != nil {
		return nil, err
	}
	// Head-sample decode and mdecode frames on (session, per-session
	// index): the sampled id rides the request so the server's stage
	// spans join the same trace. The index advances per attempted
	// frame — including failed calls — so the client's decision
	// sequence is deterministic for a fixed call order regardless of
	// outcomes. mdecode samples from the same per-session index the
	// server head-samples on (its slot counter), so multi-tag traces
	// line up end to end exactly like single-tag ones.
	var tctx obs.TraceCtx
	if c.cfg.Tracer != nil && (req.Op == OpDecode || req.Op == OpMultiDecode) {
		n := cs.frame
		cs.frame = n + 1
		tctx = c.cfg.Tracer.Head(req.Session, n)
		req.Trace = tctx.ID()
	}
	tsp := tctx.Start("client_send")
	resp, err := c.doLocked(req)
	tsp.End()
	c.breakerRecord(cs, req.Session, err != nil || resp.Code == CodeError)
	if err == nil && resp.Handoff != nil {
		// Cache the session's latest portable snapshot (Config.Handoff
		// servers attach one per decode); this is what a cluster client
		// installs on a survivor node after a failure.
		if cs == nil {
			cs = c.track(req.Session, true)
		}
		cs.handoff = resp.Handoff
	}
	return resp, err
}

// LastHandoff returns the session's most recent handoff snapshot (nil
// if none arrived or its entry was TTL-evicted). The snapshot is the
// one the latest successful decode response carried — installing it on
// another node and retrying the failed frame resumes the stream with
// no duplicate or lost frames.
func (c *Client) LastHandoff(session string) *HandoffState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs := c.sessions[session]; cs != nil {
		return cs.handoff
	}
	return nil
}

// doLocked is do without the breaker wrapping. Caller holds mu.
func (c *Client) doLocked(req *Request) (*Response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRedials; attempt++ {
		if attempt > 0 {
			c.sleep(c.redialDelay(attempt))
		}
		if c.conn == nil {
			if c.cfg.MaxRedials == 0 {
				return nil, errors.Join(ErrConnBroken, errors.New("serve: reconnection disabled"))
			}
			if err := c.connect(); err != nil {
				lastErr = err
				continue
			}
			c.health.Redials++
			c.cfg.Flight.Record(obs.FlightRedial, req.Session,
				fmt.Sprintf("reconnected to %s on attempt %d", c.cfg.Addr, attempt), req.Trace)
		}
		resp, err := c.exchange(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		c.breakConnLocked()
	}
	return nil, errors.Join(ErrConnBroken, lastErr)
}

// call runs one round trip and maps the response to its typed error;
// the response stays populated on typed rejections.
func (c *Client) call(req *Request) (*Response, error) {
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// Decode submits one application frame for the session and returns the
// outcome. Typed rejections (ErrQueueFull, ErrDraining, ErrDeadline)
// come back as the error with the response still populated, so callers
// can distinguish backpressure from transport failure with errors.Is.
func (c *Client) Decode(session string, payload []byte) (*Response, error) {
	return c.call(&Request{Op: OpDecode, Session: session, Payload: payload})
}

// DecodeTimeout is Decode with an explicit per-job deadline in
// milliseconds, overriding the server default.
func (c *Client) DecodeTimeout(session string, payload []byte, timeoutMs int) (*Response, error) {
	return c.call(&Request{Op: OpDecode, Session: session, Payload: payload, TimeoutMs: timeoutMs})
}

// MultiDecode offers one payload per tag of the session's multi-tag
// group and runs a jointly decoded slot. The first MultiDecode on a
// session fixes its group size; later calls must match it. Per-tag
// outcomes come back in Response.Tags, aligned with payloads.
func (c *Client) MultiDecode(session string, payloads [][]byte) (*Response, error) {
	return c.call(&Request{Op: OpMultiDecode, Session: session, Payloads: payloads})
}

// InstallHandoff submits a handoff snapshot for the session: the
// daemon (running with Config.Handoff) builds a fresh session, replays
// its fault timeline, and restores the snapshot so the session's next
// decode continues the origin node's stream byte-identically.
func (c *Client) InstallHandoff(session string, hs *HandoffState) (*Response, error) {
	return c.call(&Request{Op: OpHandoff, Session: session, Handoff: hs})
}

// Stats returns the session's accumulated statistics, ordered after
// every decode the session has answered.
func (c *Client) Stats(session string) (*SessionStats, error) {
	resp, err := c.call(&Request{Op: OpStats, Session: session})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("serve: stats response missing body")
	}
	return resp.Stats, nil
}

// Ping checks daemon liveness.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: OpPing})
	return err
}

// Close drops the connection permanently; the client will not redial.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn, c.br, c.bw = nil, nil, nil
	return err
}
