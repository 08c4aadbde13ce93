package mac

import (
	"fmt"

	"backfi/internal/rng"
)

// Deterministic tag-arbitration MAC (paper Sec. 4.1 generalized to
// groups). BackFi addresses one tag per excitation by prefixing the
// wake preamble it alone correlates against; with joint successive
// cancellation at the reader (DESIGN.md §5i) one excitation can carry
// several tags, so arbitration becomes: which GROUP of tags does frame
// k light up?
//
// TagMAC answers that as a pure function of (Seed, frame index). Each
// round is a seeded permutation of the population sliced into groups
// of GroupSize; round r uses an RNG keyed by Seed and r, so any
// worker — a shard goroutine, a replayed trace, a remote client — can
// compute frame k's group independently, in O(population), with no
// shared state. That is the same determinism contract the serving
// layer pins for session streams (§5e): arbitration must never depend
// on who computed it.
//
// When a group fails joint decode (too many reflections for the SIC
// depth), Split gives the query-tree fallback: halve the group and
// poll the halves in consecutive frames, recursing until every tag is
// isolated — the classic binary tree walk, still fully deterministic.

// TagMACConfig sizes the arbitration.
type TagMACConfig struct {
	// Tags is the population size (tag IDs 0..Tags-1).
	Tags int
	// GroupSize is how many tags share one excitation — the joint-SIC
	// decode depth the reader is provisioned for. 1 degenerates to the
	// paper's single-tag polling.
	GroupSize int
	// Seed keys the per-round permutations.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c TagMACConfig) Validate() error {
	if c.Tags <= 0 {
		return fmt.Errorf("mac: Tags %d, need > 0", c.Tags)
	}
	if c.GroupSize <= 0 {
		return fmt.Errorf("mac: GroupSize %d, need > 0", c.GroupSize)
	}
	return nil
}

// TagMAC is the deterministic slotted arbiter. It holds only the
// (immutable) config; all scheduling state is derived per call.
type TagMAC struct {
	cfg TagMACConfig
}

// NewTagMAC builds an arbiter.
func NewTagMAC(cfg TagMACConfig) (*TagMAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TagMAC{cfg: cfg}, nil
}

// SlotsPerRound is how many frames one full pass over the population
// takes: every tag is polled exactly once per round.
func (m *TagMAC) SlotsPerRound() int {
	g := m.cfg.GroupSize
	return (m.cfg.Tags + g - 1) / g
}

// Slot returns the tag IDs lit by frame (slot) index `frame`, in
// ascending order. Pure: two calls with the same frame always agree,
// and frames may be computed in any order by any caller.
func (m *TagMAC) Slot(frame int) []int {
	if frame < 0 {
		return nil
	}
	spr := m.SlotsPerRound()
	round := frame / spr
	slot := frame % spr
	perm := m.roundPermutation(round)
	g := m.cfg.GroupSize
	lo := slot * g
	hi := lo + g
	if hi > len(perm) {
		hi = len(perm)
	}
	group := append([]int(nil), perm[lo:hi]...)
	sortInts(group)
	return group
}

// roundPermutation is the seeded Fisher-Yates shuffle for one round,
// keyed by (Seed, round) so rounds differ but replays agree.
func (m *TagMAC) roundPermutation(round int) []int {
	r := rng.New(rng.Mix(m.cfg.Seed, round))
	perm := make([]int, m.cfg.Tags)
	for i := range perm {
		perm[i] = i
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// Split is the query-tree collision fallback: a group whose joint
// decode failed is halved, and the halves are polled in consecutive
// frames. Splitting a singleton (or empty group) returns nil — the
// tree bottoms out at isolated tags.
func Split(group []int) [][]int {
	if len(group) < 2 {
		return nil
	}
	mid := len(group) / 2
	return [][]int{
		append([]int(nil), group[:mid]...),
		append([]int(nil), group[mid:]...),
	}
}

// sortInts is a tiny insertion sort; groups are a handful of entries
// and this avoids pulling sort into the hot slot path.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
