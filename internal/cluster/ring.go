// Package cluster routes BackFi serving sessions across a set of
// backfi-readerd nodes (DESIGN.md §5j): a consistent-hash ring pins
// each session id to one node, node failure re-routes the session to a
// survivor, and the serve-layer handoff snapshot makes the move
// invisible — the survivor continues the session's byte-identical
// decode stream with no duplicate or lost frames.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// ring is a consistent-hash ring over a fixed, ordered member list.
// Member i contributes vnodes points (FNV-1a 64 over "i#j"): the points
// are keyed on the member's index, not its address, so routing does not
// depend on the host or port a member listens on, and clients that list
// the same members in the same order route every session identically.
// A session id hashes to the first point clockwise. Membership changes
// only remap the sessions whose arc moved — sessions on surviving
// nodes keep their owner, which is what makes failover cheap and
// deterministic.
//
// The ring is a value-semantics helper owned by Client under its
// mutex; it is not safe for unsynchronized concurrent use.
type ring struct {
	vnodes int
	addrs  []string    // the member list; ringPoint.member indexes it
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int
}

// fnv64a is FNV-1a 64 finished with murmur3's 64-bit mixer. Bare FNV
// clusters badly on the near-identical short strings rings see
// ("host:port#0", "host:port#1", ...) — without the finalizer a
// 3-node ring routed >90% of sessions to one node. Deterministic
// across processes, which is what routing needs.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newRing builds a ring over addrs. vnodes <= 0 defaults to 64 points
// per node — enough that a 3-node ring is balanced to within a few
// percent while membership changes stay O(100) points.
func newRing(addrs []string, vnodes int) (*ring, error) {
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &ring{vnodes: vnodes, addrs: addrs}
	for i, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if slices.Index(addrs, a) != i {
			return nil, fmt.Errorf("cluster: duplicate node address %q", a)
		}
		r.add(a)
	}
	return r, nil
}

// add (re-)admits member addr at its own index in the member list.
func (r *ring) add(addr string) {
	m := slices.Index(r.addrs, addr)
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{fnv64a(fmt.Sprintf("%d#%d", m, i)), m})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on member so equal hashes order deterministically.
		return r.points[i].member < r.points[j].member
	})
}

func (r *ring) remove(addr string) {
	m := slices.Index(r.addrs, addr)
	r.points = slices.DeleteFunc(r.points, func(p ringPoint) bool { return p.member == m })
}

// owner returns the node owning session, false when the ring is empty.
// Pure function of (membership, session): every client that agrees on
// the live node set routes the session identically.
func (r *ring) owner(session string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := fnv64a(session)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.addrs[r.points[i].member], true
}

// nodes returns the distinct member addresses, sorted.
func (r *ring) nodes() []string {
	var out []string
	for _, p := range r.points {
		if a := r.addrs[p.member]; !slices.Contains(out, a) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}
