package tag

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomBits(r *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(r.Intn(2))
	}
	return bits
}

func TestModulationBasics(t *testing.T) {
	cases := []struct {
		m        Modulation
		bits     int
		points   int
		switches int
		name     string
	}{
		{BPSK, 1, 2, 1, "BPSK"},
		{QPSK, 2, 4, 3, "QPSK"},
		{PSK16, 4, 16, 15, "16PSK"},
	}
	for _, c := range cases {
		if c.m.BitsPerSymbol() != c.bits {
			t.Fatalf("%s bits = %d", c.name, c.m.BitsPerSymbol())
		}
		if c.m.Points() != c.points {
			t.Fatalf("%s points = %d", c.name, c.m.Points())
		}
		if c.m.SwitchCount() != c.switches {
			t.Fatalf("%s switches = %d, want %d (paper Fig. 3)", c.name, c.m.SwitchCount(), c.switches)
		}
		if c.m.String() != c.name {
			t.Fatalf("String = %q", c.m.String())
		}
	}
}

func TestPhasesEquallySpacedUnitMagnitude(t *testing.T) {
	for _, m := range Modulations {
		n := m.Points()
		for s := 0; s < n; s++ {
			want := 2 * math.Pi * float64(s) / float64(n)
			if got := m.Phase(s); math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s phase(%d) = %v", m, s, got)
			}
		}
	}
}

func TestPhaseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QPSK.Phase(4)
}

func TestMapDemapHardRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range Modulations {
		bits := randomBits(r, m.BitsPerSymbol()*200)
		pts := m.MapBits(bits)
		for _, p := range pts {
			if math.Abs(cmplx.Abs(p)-1) > 1e-12 {
				t.Fatalf("%s: point magnitude %v", m, cmplx.Abs(p))
			}
		}
		got := m.DemapHard(pts)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%s: bit %d differs", m, i)
			}
		}
	}
}

func TestGrayLabelingAdjacentPhases(t *testing.T) {
	// Adjacent constellation phases must differ in exactly one bit.
	for _, m := range Modulations {
		if m == BPSK {
			continue
		}
		n := m.Points()
		for p := 0; p < n; p++ {
			a := grayEncode(p)
			b := grayEncode((p + 1) % n)
			diff := 0
			for x := a ^ b; x != 0; x >>= 1 {
				diff += x & 1
			}
			if diff != 1 {
				t.Fatalf("%s: positions %d,%d labels differ in %d bits", m, p, p+1, diff)
			}
		}
	}
}

func TestDemapHardRobustToSmallPhaseError(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range Modulations {
		maxErr := math.Pi / float64(m.Points()) * 0.8
		bits := randomBits(r, m.BitsPerSymbol()*100)
		pts := m.MapBits(bits)
		for i := range pts {
			rot := (r.Float64()*2 - 1) * maxErr
			pts[i] *= complex(math.Cos(rot), math.Sin(rot))
			// Random amplitude shouldn't matter for PSK.
			pts[i] *= complex(0.1+r.Float64()*3, 0)
		}
		got := m.DemapHard(pts)
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%s: bit %d flipped by sub-decision-boundary error", m, i)
			}
		}
	}
}

func TestDemapSoftSigns(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, m := range Modulations {
		bits := randomBits(r, m.BitsPerSymbol()*64)
		soft := m.DemapSoft(m.MapBits(bits))
		for i, b := range bits {
			if b == 0 && soft[i] <= 0 || b == 1 && soft[i] >= 0 {
				t.Fatalf("%s: bit %d=%d but soft %v", m, i, b, soft[i])
			}
		}
	}
}

func TestDemapSoftMagnitudeWeighting(t *testing.T) {
	// A low-confidence (small magnitude) symbol must produce smaller
	// soft values than a high-confidence one.
	pts := QPSK.MapBits([]byte{0, 0, 0, 0})
	pts[0] *= complex(0.1, 0)
	pts[1] *= complex(10, 0)
	soft := QPSK.DemapSoft(pts)
	if math.Abs(soft[0]) >= math.Abs(soft[2]) {
		t.Fatalf("weak symbol soft %v not below strong %v", soft[0], soft[2])
	}
}

func TestDemapSoftZeroPoint(t *testing.T) {
	soft := QPSK.DemapSoft([]complex128{0})
	for _, s := range soft {
		if s != 0 {
			t.Fatalf("zero point should give zero soft values, got %v", soft)
		}
	}
}

func TestMapBitsBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PSK16.MapBits([]byte{1, 0, 1})
}

// TestPSKPointsMatchSincos pins the constellation table to the
// per-symbol expression it replaced, by Float64bits, for every PSK
// order and label, through MapBits and through the position order
// DemapSoft's table walks.
func TestPSKPointsMatchSincos(t *testing.T) {
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, m := range Modulations {
		k := m.BitsPerSymbol()
		for v := 0; v < m.Points(); v++ {
			s, c := math.Sincos(m.Phase(grayIndex(m, v)))
			want := complex(c, s)
			if !same(pskPoints[m][v], want) {
				t.Fatalf("%s label %d: table %v, Sincos %v", m, v, pskPoints[m][v], want)
			}
			bits := make([]byte, k)
			for j := range bits {
				bits[j] = byte(v>>uint(k-1-j)) & 1
			}
			if got := m.MapBits(bits)[0]; !same(got, want) {
				t.Fatalf("%s label %d: MapBits %v, Sincos %v", m, v, got, want)
			}
		}
		for p := 0; p < m.Points(); p++ {
			s, c := math.Sincos(m.Phase(p))
			if got := pskPoints[m][grayEncode(p)]; !same(got, complex(c, s)) {
				t.Fatalf("%s position %d: table %v, Sincos %v", m, p, got, complex(c, s))
			}
		}
	}
}
