package rng

import (
	"math"
	"testing"
)

// TestZigguratTables checks that the layers close: every layer i ≥ 1
// has area zigV by construction, and the top one — fixed by zigR and
// zigV rather than built — must too.
func TestZigguratTables(t *testing.T) {
	top := zigX[zigN-1] * (1 - zigF[zigN-1])
	if rel := math.Abs(top/zigV - 1); rel > 1e-8 {
		t.Fatalf("top layer area %.12g, want %.12g (rel %.2g)", top, zigV, rel)
	}
	base := zigR*zigF[1] + math.Sqrt(math.Pi/2)*math.Erfc(zigR/math.Sqrt2)
	if rel := math.Abs(base/zigV - 1); rel > 1e-8 {
		t.Fatalf("base strip area %.12g, want %.12g", base, zigV)
	}
}

// TestFillNormalCarriesNothing pins the block contract: a call's draws
// depend only on the stream's state and the call's length, so the same
// seed gives the same prefix at any length, and a call's unused half
// draw never leaks into the next call.
func TestFillNormalCarriesNothing(t *testing.T) {
	long := make([]float64, 1001)
	NewSource(9).FillNormal(long)
	for _, n := range []int{1, 2, 7, 256, 1000} {
		got := make([]float64, n)
		NewSource(9).FillNormal(got)
		for i := range got {
			if got[i] != long[i] {
				t.Fatalf("length %d: normal %d = %v, want %v", n, i, got[i], long[i])
			}
		}
	}
	// An odd-length call spends a whole draw on its last normal: the
	// next call starts at the following draw.
	s := NewSource(9)
	s.FillNormal(make([]float64, 1))
	next := make([]float64, 2)
	s.FillNormal(next)
	if next[0] != long[2] || next[1] != long[3] {
		t.Fatalf("second call drew %v, want the second draw's pair %v", next, long[2:4])
	}
}
