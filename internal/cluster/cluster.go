package cluster

import (
	"errors"
	"fmt"
	"sync"

	"backfi/internal/obs"
	"backfi/internal/serve"
)

// ErrNoNodes is returned when every cluster node is down (or the
// member list was empty to begin with). Wrapped in the returned
// errors; match with errors.Is.
var ErrNoNodes = errors.New("cluster: no live nodes")

// Config configures a cluster Client.
type Config struct {
	// Addrs is the static member list (host:port per backfi-readerd
	// node). Membership is fixed for the Client's lifetime; health
	// state decides which members are routable. The ring keys each
	// member on its index here, so every client of one cluster must
	// list the members in the same order.
	Addrs []string
	// VNodes is the consistent-hash points per node (<= 0 means 64).
	VNodes int
	// Client is the per-node serve client template; Addr is overwritten
	// with each node's address. Keep the redial budget small — it is
	// the failover detection latency for a killed node.
	Client serve.ClientConfig
	// Flight records the cluster's failover events (node_down, node_up,
	// reroute, handoff_install, handoff_reject). Events of one failover episode share a
	// trace id derived from (TraceSeed, session, frame), so a kill, the
	// re-route it forced, and the handoff that healed it line up under
	// one id next to the frame's decode spans.
	Flight *obs.FlightRecorder
	// TraceSeed salts the episode trace ids; use the tracer's seed so
	// flight events and trace spans share the same id space.
	TraceSeed int64
}

// node is one member: its lazily-dialed serve client plus health.
// The client survives the node being marked down — its session state
// (breakers, cached handoff snapshots) is what heals sessions onto
// survivors.
type node struct {
	addr string
	c    *serve.Client
	up   bool
}

// route is one session's placement: the node it last decoded on and
// how many decode calls the cluster has made for it (the episode
// trace-id index).
type route struct {
	addr   string
	frames int
}

// Client routes sessions across the cluster. One Client serializes its
// calls (mirroring serve.Client's one-connection semantics); run
// several for parallel load.
//
// The healing invariant (DESIGN.md §5j): the cached handoff snapshot
// always describes the session as of its last successful frame, so
// installing it on any node and retrying the in-flight frame continues
// the exact stream an uninterrupted node would have produced —
// at-least-once transport retries collapse to exactly-once decode
// semantics because the replacement state never includes the frame
// being retried.
type Client struct {
	cfg Config

	mu     sync.Mutex
	ring   *ring
	nodes  map[string]*node
	routes map[string]*route
	closed bool
}

// New builds a cluster Client over the member list. Nodes are dialed
// lazily on first use, so New succeeds even while nodes are still
// booting.
func New(cfg Config) (*Client, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("%w: empty member list", ErrNoNodes)
	}
	r, err := newRing(cfg.Addrs, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Client{cfg: cfg, ring: r, nodes: map[string]*node{}, routes: map[string]*route{}}
	for _, a := range cfg.Addrs {
		c.nodes[a] = &node{addr: a, up: true}
	}
	return c, nil
}

// Close closes every node client.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	var first error
	for _, n := range c.nodes {
		if n.c != nil {
			if err := n.c.Close(); err != nil && first == nil {
				first = err
			}
			n.c = nil
		}
	}
	return first
}

// UpNodes returns the currently-routable member addresses, sorted.
func (c *Client) UpNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.nodes()
}

// Owner reports which node currently owns session (false when the
// cluster has no live nodes). Deterministic across clients that agree
// on the live set.
func (c *Client) Owner(session string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.owner(session)
}

// nodeFailure reports whether err means the node itself is unusable
// (transport dead beyond the redial budget, or its circuit open) as
// opposed to the server answering unhappily, which must not trigger
// failover.
func nodeFailure(err error) bool {
	return errors.Is(err, serve.ErrConnBroken) || errors.Is(err, serve.ErrBreakerOpen)
}

// client returns addr's serve client, dialing on first use. Caller
// holds mu.
func (c *Client) client(addr string) (*serve.Client, error) {
	n := c.nodes[addr]
	if n.c == nil {
		cc := c.cfg.Client
		cc.Addr = addr
		sc, err := serve.DialClient(cc)
		if err != nil {
			return nil, err
		}
		n.c = sc
	}
	return n.c, nil
}

// markDown removes addr from the ring and records the event. Caller
// holds mu. The node's client object is retained: its cached handoff
// snapshots heal the node's sessions onto survivors.
func (c *Client) markDown(addr, session string, trace uint64, cause error) {
	n := c.nodes[addr]
	if !n.up {
		return
	}
	n.up = false
	c.ring.remove(addr)
	c.cfg.Flight.Record(obs.FlightNodeDown, session, fmt.Sprintf("%s: %v", addr, cause), trace)
}

// ProbeOnce pings every down node once and re-admits the ones that
// answer, returning their addresses. Sessions the failover moved away
// re-route back on their next call; the migration path re-installs
// their latest snapshot, so a rejoined (possibly restarted and empty)
// node continues each stream exactly where the survivor left it.
func (c *Client) ProbeOnce() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var revived []string
	for _, addr := range c.cfg.Addrs {
		n := c.nodes[addr]
		if n.up {
			continue
		}
		// The retained client's connection is dead; redial from scratch.
		if n.c != nil {
			_ = n.c.Close()
			n.c = nil
		}
		cc, err := c.client(addr)
		if err != nil {
			continue
		}
		if err := cc.Ping(); err != nil {
			continue
		}
		n.up = true
		c.ring.add(addr)
		c.cfg.Flight.Record(obs.FlightNodeUp, "", addr, 0)
		revived = append(revived, addr)
	}
	return revived
}

// place routes session onto the ring's current owner, migrating its
// handoff snapshot when the owner differs from where the session last
// decoded (failover re-route or rebalance after a node rejoined).
// Returns the owner's client. Caller holds mu.
func (c *Client) place(session string, rt *route, trace uint64) (*serve.Client, string, error) {
	for {
		owner, ok := c.ring.owner(session)
		if !ok {
			return nil, "", fmt.Errorf("%w: session %q unroutable", ErrNoNodes, session)
		}
		cc, err := c.client(owner)
		if err != nil {
			c.markDown(owner, session, trace, err)
			continue
		}
		if rt.addr == owner || rt.addr == "" {
			return cc, owner, nil
		}
		// The session moved. Carry its state: the previous node's client
		// holds the snapshot of the last successful frame even if that
		// node is gone.
		var snap *serve.HandoffState
		if prev := c.nodes[rt.addr]; prev != nil && prev.c != nil {
			snap = prev.c.LastHandoff(session)
		}
		c.cfg.Flight.Record(obs.FlightReroute, session,
			fmt.Sprintf("%s -> %s", rt.addr, owner), trace)
		if snap != nil {
			_, err := cc.InstallHandoff(session, snap)
			switch {
			case err == nil:
				c.cfg.Flight.Record(obs.FlightHandoffInstall, session,
					fmt.Sprintf("seq %d on %s", snap.Seq, owner), trace)
			case nodeFailure(err):
				c.markDown(owner, session, trace, err)
				continue
			case errors.Is(err, serve.ErrBadRequest):
				// The owner refuses this snapshot for good (the nodes
				// disagree on config or placement): keep serving the
				// session there without its state rather than failing
				// every later frame.
				c.cfg.Flight.Record(obs.FlightHandoffReject, session,
					fmt.Sprintf("seq %d on %s: %v", snap.Seq, owner, err), trace)
			default:
				return nil, "", fmt.Errorf("cluster: handoff %q to %s: %w", session, owner, err)
			}
		}
		rt.addr = owner
		return cc, owner, nil
	}
}

// Decode offers one frame of session to the cluster, healing onto a
// survivor (snapshot install + deterministic retry of this frame) when
// the owning node fails mid-call.
func (c *Client) Decode(session string, payload []byte) (*serve.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, serve.ErrClientClosed
	}
	rt := c.routes[session]
	if rt == nil {
		rt = &route{}
		c.routes[session] = rt
	}
	trace := obs.TraceID(c.cfg.TraceSeed, session, rt.frames)
	rt.frames++
	for {
		cc, owner, err := c.place(session, rt, trace)
		if err != nil {
			return nil, err
		}
		resp, err := cc.Decode(session, payload)
		if err == nil {
			rt.addr = owner
			return resp, nil
		}
		if !nodeFailure(err) {
			return resp, err
		}
		c.markDown(owner, session, trace, err)
		// Loop: place() re-routes to a survivor, installs the snapshot
		// of the last successful frame, and this frame is retried there.
	}
}

// Stats fetches session stats from the session's current owner.
func (c *Client) Stats(session string) (*serve.SessionStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, serve.ErrClientClosed
	}
	rt := c.routes[session]
	if rt == nil {
		rt = &route{}
		c.routes[session] = rt
	}
	cc, _, err := c.place(session, rt, 0)
	if err != nil {
		return nil, err
	}
	return cc.Stats(session)
}
