package cluster

import (
	"fmt"
	"slices"
	"testing"
)

func ringNodes(t *testing.T, n int) (*ring, []string) {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, fmt.Sprintf("10.0.0.%d:9000", i+1))
	}
	r, err := newRing(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, addrs
}

func TestRingValidation(t *testing.T) {
	if _, err := newRing([]string{"a:1", "a:1"}, 8); err == nil {
		t.Fatal("duplicate address accepted")
	}
	if _, err := newRing([]string{"a:1", ""}, 8); err == nil {
		t.Fatal("empty address accepted")
	}
	r, err := newRing(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.owner("s"); ok {
		t.Fatal("empty ring claimed an owner")
	}
}

// TestRingDeterminismAndBalance pins the routing contract: ownership
// is a pure function of (member set, session id) — identical across
// independently-built rings — and 64 vnodes spread sessions across a
// 3-node cluster without starving any node.
func TestRingDeterminismAndBalance(t *testing.T) {
	r1, addrs := ringNodes(t, 3)
	r2, _ := ringNodes(t, 3)
	counts := map[string]int{}
	const sessions = 3000
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("sess-%04d", i)
		a, ok := r1.owner(id)
		b, _ := r2.owner(id)
		if !ok || a != b {
			t.Fatalf("session %s: owners %q vs %q", id, a, b)
		}
		counts[a]++
	}
	for _, a := range addrs {
		if frac := float64(counts[a]) / sessions; frac < 0.15 {
			t.Errorf("node %s owns %.1f%% of sessions — ring unbalanced (%v)", a, 100*frac, counts)
		}
	}
}

// TestRingRemoveOnlyRemapsVictims is the consistency half: removing a
// node must not move any session owned by a survivor, and every
// orphaned session must land on some survivor. Re-adding the node
// restores the original placement exactly.
func TestRingRemoveOnlyRemapsVictims(t *testing.T) {
	r, addrs := ringNodes(t, 3)
	before := map[string]string{}
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("sess-%04d", i)
		before[id], _ = r.owner(id)
	}
	dead := addrs[1]
	r.remove(dead)
	moved := 0
	for id, was := range before {
		now, ok := r.owner(id)
		if !ok || now == dead {
			t.Fatalf("session %s routed to removed node (%q, ok=%v)", id, now, ok)
		}
		if was != dead && now != was {
			t.Fatalf("session %s moved %s -> %s though its owner survived", id, was, now)
		}
		if was == dead {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no sessions — test vacuous")
	}
	r.add(dead)
	for id, was := range before {
		if now, _ := r.owner(id); now != was {
			t.Fatalf("session %s at %s after rejoin, originally %s", id, now, was)
		}
	}
}

// TestRingKeyedOnMemberOrder pins routing to the member list's order,
// not its addresses: two clusters that list their members in the same
// order route every session to the same position, whatever ports the
// members happen to listen on (loopback test clusters get ephemeral
// ones), and that holds again after a member leaves and rejoins.
func TestRingKeyedOnMemberOrder(t *testing.T) {
	a := []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}
	b := []string{"127.0.0.1:51234", "127.0.0.1:38877", "127.0.0.1:60002"}
	ra, err := newRing(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := newRing(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := func(stage string) {
		t.Helper()
		for i := 0; i < 1000; i++ {
			id := fmt.Sprintf("sess-%04d", i)
			oa, _ := ra.owner(id)
			ob, _ := rb.owner(id)
			if slices.Index(a, oa) != slices.Index(b, ob) {
				t.Fatalf("%s: session %s routes to member %d (%s) vs %d (%s)",
					stage, id, slices.Index(a, oa), oa, slices.Index(b, ob), ob)
			}
		}
	}
	same("fresh")
	ra.remove(a[1])
	rb.remove(b[1])
	same("member 1 down")
	ra.add(a[1])
	rb.add(b[1])
	same("member 1 rejoined")
}
