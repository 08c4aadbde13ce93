package tag

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"backfi/internal/fec"
)

// dirty returns a buffer of capacity n filled with garbage, so an Into
// form that forgets to overwrite a sample shows.
func dirty(n int) []complex128 {
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(float64(i)+0.5, -1)
	}
	return b
}

func TestModulationSequenceIntoMatches(t *testing.T) {
	tg, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := dirty(30000)
	for _, tc := range []struct {
		packet  int
		payload []byte
	}{
		{20000, []byte("hello backfi")},
		{8000, nil},
		{30000, make([]byte, 100)},
	} {
		want, wantPlan, err := tg.ModulationSequence(tc.packet, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		got, plan, err := tg.ModulationSequenceInto(buf, tc.packet, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if &got[0] != &buf[0] {
			t.Fatal("ModulationSequenceInto reallocated a large enough buffer")
		}
		if !slices.Equal(got, want) || plan.End() != wantPlan.End() {
			t.Fatalf("packet %d: Into form differs from ModulationSequence", tc.packet)
		}
		buf = got
	}
	if _, _, err := tg.ModulationSequenceInto(buf, 500, make([]byte, 24)); err == nil {
		t.Fatal("expected a capacity error")
	}
}

func TestDemapSoftIntoMatches(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := make([]complex128, 60)
	for i := range pts {
		pts[i] = cmplx.Rect(0.2+r.Float64(), 2*math.Pi*r.Float64())
	}
	buf := make([]float64, 4*len(pts))
	for _, m := range AllModulations {
		for i := range buf {
			buf[i] = math.NaN()
		}
		got := m.DemapSoftInto(buf, pts)
		if want := m.DemapSoft(pts); !slices.Equal(got, want) {
			t.Fatalf("%s: DemapSoftInto differs from DemapSoft", m)
		}
	}
}

func TestPreambleSequenceShared(t *testing.T) {
	a := PreambleSequence(3, 32)
	b := PreambleSequence(3, 32)
	if &a[0] != &b[0] {
		t.Fatal("repeated PreambleSequence calls do not share the cached slice")
	}
	if c := PreambleSequence(3, 96); len(c) != 96 || c[0] != a[0] {
		t.Fatal("chip count must key the cache, not change the sequence's prefix")
	}
	// Sweeping more IDs than the cache holds starts it over without
	// changing any sequence.
	for id := 0; id < 2*maxCachedPreambles; id++ {
		PreambleSequence(1000+id, 32)
	}
	if !slices.Equal(PreambleSequence(3, 32), a) {
		t.Fatal("preamble changed across a cache reset")
	}
}

// TestPreambleSequenceConcurrent hammers the cache from several
// goroutines, across resets, and checks every answer against the
// sequence returned before the hammering began (run it with -race).
func TestPreambleSequenceConcurrent(t *testing.T) {
	want := make([][]complex128, 8)
	for id := range want {
		want[id] = slices.Clone(PreambleSequence(id, 32))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxCachedPreambles; i++ {
				id := (g + i) % len(want)
				if !slices.Equal(PreambleSequence(id, 32), want[id]) {
					t.Errorf("goroutine %d: preamble %d changed", g, id)
					return
				}
				PreambleSequence(5000+g*maxCachedPreambles+i, 32)
			}
		}(g)
	}
	wg.Wait()
}

func TestEncodeFrameBitsIntoMatches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	buf := make([]byte, 0, 8192)
	for _, coding := range []fec.CodeRate{fec.Rate12, fec.Rate23, fec.Rate34} {
		for _, mod := range AllModulations {
			for _, n := range []int{0, 1, 24, 300} {
				payload := make([]byte, n)
				r.Read(payload)
				// The frame-bytes path the streaming encoder replaced.
				want := fec.EncodePunctured(fec.BytesToBits(BuildFrame(payload)), coding)
				for len(want)%mod.BitsPerSymbol() != 0 {
					want = append(want, 0)
				}
				got := EncodeFrameBitsInto(buf, payload, coding, mod)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %s, %d B: EncodeFrameBitsInto differs", coding, mod, n)
				}
				if &got[0] != &buf[:1][0] {
					t.Fatalf("%s %s: EncodeFrameBitsInto reallocated a large enough buffer", coding, mod)
				}
				if SymbolsForPayload(n, coding, mod) != len(got)/mod.BitsPerSymbol() {
					t.Fatalf("%s %s, %d B: codeword length disagrees with SymbolsForPayload", coding, mod, n)
				}
			}
		}
	}
}

// TestSymbolIntoFormsZeroAlloc pins the re-encode path the reader runs
// per decoded frame — encode, map, decide — at zero allocations once
// its buffers have grown, with results equal to the allocating forms.
func TestSymbolIntoFormsZeroAlloc(t *testing.T) {
	payload := []byte("reading-0123456789abcdef")
	for _, mod := range AllModulations {
		var bits, hard []byte
		var syms []complex128
		run := func() {
			bits = EncodeFrameBitsInto(bits, payload, fec.Rate12, mod)
			syms = mod.MapBitsInto(syms, bits)
			hard = mod.DemapHardInto(hard, syms)
		}
		run()
		if !slices.Equal(syms, mod.MapBits(EncodeFrameBits(payload, fec.Rate12, mod))) || !slices.Equal(hard, mod.DemapHard(syms)) {
			t.Fatalf("%s: Into forms differ from the allocating forms", mod)
		}
		if !slices.Equal(hard, bits) {
			t.Fatalf("%s: noiseless decisions do not return the coded bits", mod)
		}
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Fatalf("%s: %v allocs per re-encode, want 0", mod, n)
		}
	}
}
