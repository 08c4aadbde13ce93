package reader

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"backfi/internal/linalg"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// sameBits reports whether a and b hold the same complex values bit for
// bit.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// estimateHfbOnePass is the combined-channel fit as it was before the
// Gram matrix was memoized: the Gram matrix and the right-hand side
// summed in one pass over the rows, then factored and solved per fit.
// The memoized fit must match it bit for bit.
func estimateHfbOnePass(cfg Config, x, clean []complex128, preStart int, pn []complex128) ([]complex128, error) {
	L := cfg.ChannelTaps
	g := linalg.NewMatrix(L, L)
	rhs := make([]complex128, L)
	rows := 0
	for c, chip := range pn {
		chipStart := preStart + c*tag.ChipSamples
		cc := real(chip)*real(chip) + imag(chip)*imag(chip)
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			rows++
			chipY := cmplx.Conj(chip) * clean[n]
			for k := 0; k < L; k++ {
				cxk := cmplx.Conj(x[n-k])
				rhs[k] += cxk * chipY
				row := g.Data[k*L:]
				for l := k; l < L; l++ {
					row[l] += complex(cc, 0) * cxk * x[n-l]
				}
			}
		}
	}
	if rows < 2*L {
		return nil, fmt.Errorf("only %d rows", rows)
	}
	for k := 0; k < L; k++ {
		for l := 0; l < k; l++ {
			g.Data[k*L+l] = cmplx.Conj(g.Data[l*L+k])
		}
	}
	return linalg.SolveHermitian(g, rhs, cfg.Lambda)
}

// wifiExcitation is a train of 24 Mbps PPDUs, the waveform the link's
// pooled templates carry, at the reader tests' 20 dBm.
func wifiExcitation(t testing.TB, r *rand.Rand, n int) []complex128 {
	t.Helper()
	rate, err := wifi.RateByMbps(24)
	if err != nil {
		t.Fatal(err)
	}
	amp := complex(math.Sqrt(0.1), 0)
	var x []complex128
	psdu := make([]byte, 200)
	for len(x) < n {
		r.Read(psdu)
		wave, err := wifi.Transmit(psdu, rate, wifi.DefaultScramblerSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range wave {
			x = append(x, v*amp)
		}
	}
	return x[:n]
}

// TestMemoizedFitsMatchFresh pins the memo's bit-identity argument on a
// WiFi PPDU train (the pooled templates' waveform) and on a white
// custom excitation: at every PN grid the timing search can reach, the
// combined-channel fit matches the one-pass fresh fit by Float64bits on
// the miss that builds the factor and on the hit that reuses it, for
// two tags whose ±1 chips share one entry; and the digital canceller's
// fit against the memoized factor matches linalg.ToeplitzLSFast.
func TestMemoizedFitsMatchFresh(t *testing.T) {
	cfg := DefaultConfig()
	reach := timingPasses * cfg.TimingSearch
	for _, kind := range []string{"wifi", "custom"} {
		t.Run(kind, func(t *testing.T) {
			r := rand.New(rand.NewSource(41))
			sc := buildScene(t, 41, qpskCfg(), 24, -60)
			x := sc.x
			if kind == "wifi" {
				x = wifiExcitation(t, r, len(sc.x))
			}
			ex := NewExcitation(x)
			var s Stream
			s.configure(cfg)
			s.clean = sc.y // any capture: the right-hand side is what varies
			preStart := sc.packetStart + tag.SilentSamples
			for _, id := range []int{1, 2} {
				pn := tag.PreambleSequence(id, tag.DefaultPreambleChips)
				for off := -reach; off <= reach; off++ {
					want, err := estimateHfbOnePass(cfg, x, sc.y, preStart+off, pn)
					if err != nil {
						t.Fatal(err)
					}
					for _, pass := range []string{"first", "again"} {
						if err := s.estimateHfbInto(cfg, ex, s.hfb, preStart+off, pn); err != nil {
							t.Fatal(err)
						}
						if !sameBits(s.hfb, want) {
							t.Fatalf("tag %d, grid %+d, %s fit: %v, fresh %v", id, off, pass, s.hfb, want)
						}
					}
				}
			}
			if got, want := len(*ex.fits.Load()), 2*reach+1; got != want || ex.size > MemoBytes {
				t.Fatalf("memo holds %d channel factors for %d grids in %d B, bound %d B", got, want, ex.size, MemoBytes)
			}

			sic := cfg.SIC
			start, stop := sc.packetStart, sc.packetStart+tag.SilentSamples
			var ws linalg.ToeplitzWorkspace
			want, err := linalg.ToeplitzLSFast(&ws, x, sc.y, sic.DigitalTaps, start, stop, sic.Lambda)
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []string{"first", "again"} {
				rhs, err := linalg.ToeplitzRHSInto(nil, x, sc.y, sic.DigitalTaps, start, stop)
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.cancellerFactor(sic.DigitalTaps, start, stop, sic.Lambda).Solve(rhs); err != nil {
					t.Fatal(err)
				}
				if !sameBits(rhs, want) {
					t.Fatalf("%s canceller fit differs from ToeplitzLSFast", pass)
				}
			}
		})
	}
}

// TestMemoCachesFailures pins that a fit whose factor fails — a
// constant excitation under the preamble gives a rank-one Gram matrix —
// returns the same error on the miss and on the hit, and that the
// unsolved right-hand side still lands in the taps both times, as the
// fresh fit left it. A preamble too short for the taps fails before
// the memo and leaves the taps untouched.
func TestMemoCachesFailures(t *testing.T) {
	cfg := DefaultConfig()
	sc := buildScene(t, 43, qpskCfg(), 24, -60)
	preStart := sc.packetStart + tag.SilentSamples
	pn := tag.PreambleSequence(1, tag.DefaultPreambleChips)
	x := append([]complex128(nil), sc.x...)
	for i := preStart; i < preStart+len(pn)*tag.ChipSamples; i++ {
		x[i] = 1
	}
	// The right-hand side Σ x̄[n-k]·c̄·y[n] with x = 1 over the rows.
	L := cfg.ChannelTaps
	rhs := make([]complex128, L)
	for c, chip := range pn {
		for n := preStart + c*tag.ChipSamples + L - 1; n < preStart+(c+1)*tag.ChipSamples; n++ {
			for k := range rhs {
				rhs[k] += cmplx.Conj(x[n-k]) * (cmplx.Conj(chip) * sc.y[n])
			}
		}
	}
	ex := NewExcitation(x)
	var s Stream
	s.configure(cfg)
	s.clean = sc.y
	var first error
	for pass := 0; pass < 2; pass++ {
		clear(s.hfb)
		err := s.estimateHfbInto(cfg, ex, s.hfb, preStart, pn)
		if err == nil {
			t.Fatal("a constant excitation fitted 8 taps")
		}
		if pass == 0 {
			first = err
		} else if err.Error() != first.Error() {
			t.Fatalf("cached failure %q, first %q", err, first)
		}
		if !sameBits(s.hfb, rhs) {
			t.Fatalf("pass %d: taps %v, want the unsolved right-hand side %v", pass, s.hfb, rhs)
		}
	}
	s.hfb[0] = 1
	if err := s.estimateHfbInto(cfg, ex, s.hfb, preStart, pn[:1]); err == nil || s.hfb[0] != 1 {
		t.Fatalf("one chip: error %v, taps %v; want the row count error with the taps untouched", err, s.hfb)
	}
}

// TestExcitationSharedAcrossGoroutines decodes one 2-tag slot on two
// goroutines at once against one cold Excitation, so both race to
// build every factor, and pins both results to a decode against a
// private Excitation by Float64bits. go test -race checks the memo's
// synchronization.
func TestExcitationSharedAcrossGoroutines(t *testing.T) {
	rd := mustNew(DefaultConfig())
	sc := buildJointScene(t, 17, 2, 2, 1)
	decode := func(ex *Excitation) *Decoded {
		d, err := rd.Decode(make([]Stream, 1), ex, sc.xAir, sc.ys, sc.packetStart, sc.packetLen, sc.cfgs)
		if err != nil {
			t.Error(err)
		}
		return d
	}
	want := decode(NewExcitation(sc.x))
	shared := NewExcitation(sc.x)
	var got [2]*Decoded
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = decode(shared)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d == nil || len(d.Order) != len(want.Order) {
			t.Fatalf("goroutine %d: decoded %v, want order %v", i, d, want.Order)
		}
		for k, w := range want.Tags {
			g := d.Tags[k]
			if (g == nil) != (w == nil) {
				t.Fatalf("goroutine %d tag %d: layer %v, want %v", i, k, g, w)
			}
			if w == nil {
				continue
			}
			if !sameBits(g.Hfb, w.Hfb) || !sameBits(g.SymbolEstimates, w.SymbolEstimates) ||
				math.Float64bits(g.SNRdB) != math.Float64bits(w.SNRdB) || g.FrameOK != w.FrameOK {
				t.Fatalf("goroutine %d tag %d differs from a private decode", i, k)
			}
		}
	}
}

// TestSearchGridKeepsTapsWhenRefitFails builds the case where the
// timing search wants to move to a grid whose channel fit fails: an
// excitation that turns constant 7 samples into the preamble, so the
// nominal grid's rows still span all 8 taps while a grid 6 samples
// later sees one random sample (a rank-2 Gram matrix), and a capture
// whose chips arrive 14 samples late, so the metric peaks 6 samples
// on. The search must keep the nominal taps and grid instead of moving
// onto an unsolved right-hand side.
func TestSearchGridKeepsTapsWhenRefitFails(t *testing.T) {
	cfg := DefaultConfig()
	rd := mustNew(cfg)
	r := rand.New(rand.NewSource(5))
	const preStart, late = 600, 14
	pn := tag.PreambleSequence(1, tag.DefaultPreambleChips)
	n := preStart + len(pn)*tag.ChipSamples + 200
	x := make([]complex128, n)
	for i := range preStart + 7 {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	for i := preStart + 7; i < n; i++ {
		x[i] = 1
	}
	ex := NewExcitation(x)
	var s Stream
	s.configure(cfg)
	s.clean = make([]complex128, n)
	s.ref = make([]complex128, n)
	for i := range s.ref {
		s.ref[i] = 1
	}
	for c, chip := range pn {
		for k := range tag.ChipSamples {
			s.clean[preStart+late+c*tag.ChipSamples+k] = chip
		}
	}

	// Reachable: the nominal fit succeeds, the search steps 6 samples
	// late, and the fit there fails.
	if err := s.estimateHfbInto(cfg, ex, s.hfb, preStart, pn); err != nil {
		t.Fatalf("nominal fit: %v", err)
	}
	nominal := append([]complex128(nil), s.hfb...)
	step := rd.searchTiming(s.clean, s.ref, preStart, pn)
	if step != cfg.TimingSearch {
		t.Fatalf("search steps %d, want %d", step, cfg.TimingSearch)
	}
	if err := s.estimateHfbInto(cfg, ex, s.best, preStart+step, pn); err == nil {
		t.Fatal("the fit 6 samples late succeeded; the case does not reach a failed refit")
	}

	if off := rd.searchGrid(&s, ex, x, preStart, pn, preStart, n); off != 0 {
		t.Fatalf("search settled %d samples off after a failed refit, want 0", off)
	}
	if !sameBits(s.hfb, nominal) {
		t.Fatalf("taps %v after a failed refit, want the nominal fit %v", s.hfb, nominal)
	}
}

// BenchmarkEstimateHfb times one combined-channel fit at the default
// configuration: hit against a warm memo (the steady state of a pooled
// template; CI requires 0 allocs/op), miss building the factor too.
func BenchmarkEstimateHfb(b *testing.B) {
	cfg := DefaultConfig()
	r := rand.New(rand.NewSource(7))
	x := wifiExcitation(b, r, 4000)
	const preStart = 1000
	pn := tag.PreambleSequence(1, tag.DefaultPreambleChips)
	var s Stream
	s.configure(cfg)
	s.clean = x
	b.Run("hit", func(b *testing.B) {
		ex := NewExcitation(x)
		if err := s.estimateHfbInto(cfg, ex, s.hfb, preStart, pn); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := s.estimateHfbInto(cfg, ex, s.hfb, preStart, pn); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := s.estimateHfbInto(cfg, NewExcitation(x), s.hfb, preStart, pn); err != nil {
				b.Fatal(err)
			}
		}
	})
}
