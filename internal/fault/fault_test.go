package fault

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"backfi/internal/channel"
	"backfi/internal/obs"
	"backfi/internal/rng"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    *Profile
		ok   bool
	}{
		{"nil", nil, true},
		{"zero", &Profile{}, true},
		{"standard", func() *Profile { p := Standard(0.7); return &p }(), true},
		{"trunc prob high", &Profile{TruncateProb: 1.5}, false},
		{"trunc prob negative", &Profile{TruncateProb: -0.1}, false},
		{"preamble prob high", &Profile{PreambleCorruptProb: 2}, false},
		{"ack prob negative", &Profile{ACKDropProb: -1}, false},
		{"duty one", &Profile{InterfDuty: 1}, false},
		{"duty negative", &Profile{InterfDuty: -0.2}, false},
		{"trunc frac high", &Profile{TruncateFrac: 1.1}, false},
		{"adc bits negative", &Profile{ADCBits: -1}, false},
		{"adc bits huge", &Profile{ADCBits: 48}, false},
		{"phase noise negative", &Profile{PhaseNoiseHz: -10}, false},
		{"burst negative", &Profile{InterfBurstUs: -1, InterfDuty: 0.1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestNewInjectorNilForDisabled(t *testing.T) {
	for _, p := range []*Profile{nil, {}} {
		in, err := NewInjector(p, 1, 20e6, nil)
		if err != nil {
			t.Fatalf("profile %+v: %v", p, err)
		}
		if in != nil {
			t.Fatalf("profile %+v: expected nil injector", p)
		}
	}
	if _, err := NewInjector(&Profile{TruncateProb: 2}, 1, 20e6, nil); err == nil {
		t.Fatal("invalid profile must error")
	}
}

// TestNilInjectorNoOps: every method of a nil injector returns its
// input unchanged — the contract that makes LinkConfig.Faults == nil
// byte-identical to the unfaulted pipeline.
func TestNilInjectorNoOps(t *testing.T) {
	var in *Injector
	x := []complex128{1, 2i, 3}
	in.ApplyFrontEnd(x)
	if x[0] != 1 || x[1] != 2i || x[2] != 3 {
		t.Fatal("nil ApplyFrontEnd mutated input")
	}
	m := []complex128{1, -1}
	in.ApplyTagPhaseNoise(m)
	if m[0] != 1 || m[1] != -1 {
		t.Fatal("nil ApplyTagPhaseNoise mutated input")
	}
	if in.CorruptPreamble(m, 0, 2, 1) != 0 {
		t.Fatal("nil CorruptPreamble flipped chips")
	}
	if in.AddInterference(x) != 0 {
		t.Fatal("nil AddInterference reported bursts")
	}
	if in.ApplyADC(x) != 0 {
		t.Fatal("nil ApplyADC reported clips")
	}
	if in.TruncateTail(x, 0, 3) != 0 {
		t.Fatal("nil TruncateTail lost samples")
	}
	if in.DropACK() {
		t.Fatal("nil DropACK dropped")
	}
	if in.DropWake() {
		t.Fatal("nil DropWake dropped")
	}
	if x[0] != 1 || x[1] != 2i || x[2] != 3 {
		t.Fatal("nil methods mutated input")
	}
	if (in.Profile() != Profile{}) {
		t.Fatal("nil Profile() not zero")
	}
}

func randomWave(n int, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

// TestDeterminism: a fixed (profile, seed) reproduces every method's
// output exactly across independent injectors.
func TestDeterminism(t *testing.T) {
	p := Standard(0.8)
	run := func() ([]complex128, []complex128, []complex128, bool) {
		in, err := NewInjector(&p, 77, 20e6, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := randomWave(512, 1)
		in.ApplyFrontEnd(x)
		m := randomWave(512, 2)
		in.ApplyTagPhaseNoise(m)
		in.CorruptPreamble(m, 64, 8, 20)
		y := randomWave(512, 3)
		in.AddInterference(y)
		in.ApplyADC(y)
		in.TruncateTail(y, 100, 300)
		return x, m, y, in.DropACK()
	}
	x1, m1, y1, d1 := run()
	x2, m2, y2, d2 := run()
	if d1 != d2 {
		t.Fatal("DropACK diverged")
	}
	for i := range x1 {
		if x1[i] != x2[i] || m1[i] != m2[i] || y1[i] != y2[i] {
			t.Fatalf("sample %d diverged", i)
		}
	}
}

// TestDropWake pins the wake-fault edge probabilities and the injected
// count surfacing in the §5c registry.
func TestDropWake(t *testing.T) {
	reg := obs.NewRegistry()
	in, err := NewInjector(&Profile{NoWakeProb: 1}, 5, 20e6, reg)
	if err != nil {
		t.Fatal(err)
	}
	const packets = 7
	for i := 0; i < packets; i++ {
		if !in.DropWake() {
			t.Fatal("NoWakeProb=1 must drop every wake")
		}
	}
	if got := reg.Snapshot().Counter(obs.MetricFaultsInjected, `{kind="wake_drop"}`); got != packets {
		t.Fatalf("wake_drop count %d, want %d", got, packets)
	}
	never, err := NewInjector(&Profile{NoWakeProb: 0, ACKDropProb: 1}, 5, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if never.DropWake() {
		t.Fatal("NoWakeProb=0 dropped a wake")
	}
	if err := (&Profile{NoWakeProb: 1.5}).Validate(); err == nil {
		t.Fatal("NoWakeProb above 1 must fail validation")
	}
}

func TestCFORotation(t *testing.T) {
	p := &Profile{CFOHz: 1000}
	in, err := NewInjector(p, 1, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 100
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	in.ApplyFrontEnd(x)
	for i, v := range x {
		want := 2 * math.Pi * 1000 / 20e6 * float64(i)
		if diff := math.Abs(cmplx.Phase(v) - want); diff > 1e-9 {
			t.Fatalf("sample %d: phase %v want %v", i, cmplx.Phase(v), want)
		}
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("sample %d: CFO changed magnitude", i)
		}
	}
}

func TestADCQuantizeAndClip(t *testing.T) {
	p := &Profile{ADCBits: 4, ADCClipDB: 0} // full scale = RMS, defaults give 12 → set via withDefaults check below
	in, err := NewInjector(p, 1, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if in.Profile().ADCClipDB != 12 {
		t.Fatalf("withDefaults: ADCClipDB = %v, want 12", in.Profile().ADCClipDB)
	}
	// A single huge outlier among unit samples must clip.
	y := make([]complex128, 256)
	for i := range y {
		y[i] = complex(1, -1)
	}
	y[7] = complex(1e6, 0)
	clipped := in.ApplyADC(y)
	if clipped == 0 {
		t.Fatal("outlier did not clip")
	}
	// All surviving values must lie on the quantization grid.
	var pw float64
	levels := map[float64]bool{}
	for _, v := range y {
		pw += real(v)*real(v) + imag(v)*imag(v)
		levels[real(v)] = true
		levels[imag(v)] = true
	}
	if len(levels) > 1<<5 {
		t.Fatalf("more distinct levels (%d) than a 4-bit grid plus clip rails allows", len(levels))
	}
}

// TestInterferenceDuty checks the burst process against its two-state
// Markov law: the on-fraction, the mean burst length InterfBurstUs·fs
// and the mean off-run InterfBurstUs·fs·(1−duty)/duty. Runs cut by the
// ends of y are left out of the means.
func TestInterferenceDuty(t *testing.T) {
	p := &Profile{InterfDuty: 0.3, InterfPowerDBm: -40, InterfBurstUs: 5}
	in, err := NewInjector(p, 9, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 1000000
	y := make([]complex128, n)
	in.AddInterference(y)
	hit := 0
	var runs [2][]int // off, on
	start := 0
	for i := range y {
		on := y[i] != 0
		if on {
			hit++
		}
		if i+1 == n || (y[i+1] != 0) != on {
			if start > 0 && i+1 < n {
				k := 0
				if on {
					k = 1
				}
				runs[k] = append(runs[k], i+1-start)
			}
			start = i + 1
		}
	}
	duty := float64(hit) / float64(n)
	if duty < 0.2 || duty > 0.4 {
		t.Fatalf("measured duty %.3f far from configured 0.3", duty)
	}
	burst := p.InterfBurstUs * 1e-6 * 20e6
	for k, want := range []float64{burst * (1 - p.InterfDuty) / p.InterfDuty, burst} {
		var sum float64
		for _, l := range runs[k] {
			sum += float64(l)
		}
		mean := sum / float64(len(runs[k]))
		// Geometric run lengths: standard deviation ≈ the mean.
		if se := want / math.Sqrt(float64(len(runs[k]))); math.Abs(mean-want) > 4*se {
			t.Errorf("%s runs: mean %.1f samples over %d, want %.1f ± %.1f", []string{"off", "on"}[k], mean, len(runs[k]), want, 4*se)
		}
	}
}

func TestTruncateTailBounds(t *testing.T) {
	p := &Profile{TruncateProb: 1, TruncateFrac: 0.5}
	in, err := NewInjector(p, 3, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	y := randomWave(1000, 4)
	lost := in.TruncateTail(y, 200, 600)
	if lost < 1 || lost > 301 {
		t.Fatalf("lost %d samples, want within (0, 0.5·600]", lost)
	}
	// Only the tail of [200, 800) may be zeroed; everything outside is intact.
	for i := 0; i < 800-lost; i++ {
		if y[i] == 0 {
			t.Fatalf("sample %d before the lost tail was zeroed", i)
		}
	}
	for i := 800 - lost; i < 800; i++ {
		if y[i] != 0 {
			t.Fatalf("sample %d inside the lost tail survived", i)
		}
	}
	for i := 800; i < 1000; i++ {
		if y[i] == 0 {
			t.Fatalf("sample %d after the packet was zeroed", i)
		}
	}
}

func TestPreambleCorruptFlipsWholeChips(t *testing.T) {
	p := &Profile{PreambleCorruptProb: 1}
	in, err := NewInjector(p, 5, 20e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]complex128, 200)
	for i := range m {
		m[i] = 1
	}
	flipped := in.CorruptPreamble(m, 40, 4, 20)
	if flipped != 4 {
		t.Fatalf("flipped %d chips, want all 4", flipped)
	}
	for i := 40; i < 120; i++ {
		if m[i] != -1 {
			t.Fatalf("preamble sample %d not inverted", i)
		}
	}
	for i := 0; i < 40; i++ {
		if m[i] != 1 {
			t.Fatalf("pre-preamble sample %d modified", i)
		}
	}
}

func TestStandardProfile(t *testing.T) {
	p0, p5 := Standard(0), Standard(0.5)
	if p0.Enabled() {
		t.Fatal("severity 0 must disable everything")
	}
	if !p5.Enabled() {
		t.Fatal("severity 0.5 must enable impairments")
	}
	if Standard(-3) != Standard(0) || Standard(7) != Standard(1) {
		t.Fatal("severity must clamp to [0,1]")
	}
	if err := func() *Profile { p := Standard(1); return &p }().Validate(); err != nil {
		t.Fatalf("Standard(1) invalid: %v", err)
	}
}

func TestInjectorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := &Profile{TruncateProb: 1, TruncateFrac: 0.2, ACKDropProb: 1}
	in, err := NewInjector(p, 11, 20e6, reg)
	if err != nil {
		t.Fatal(err)
	}
	in.TruncateTail(randomWave(100, 1), 0, 100)
	if !in.DropACK() {
		t.Fatal("ACKDropProb=1 must drop")
	}
	snap := reg.Snapshot()
	found := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Name == obs.MetricFaultsInjected && c.Value > 0 {
			found[c.Labels] = true
		}
	}
	if len(found) < 2 {
		t.Fatalf("want truncate and ack_drop counters > 0, got %+v (all: %+v)", found, snap.Counters)
	}
}

// TestFrontEndInPlaceMatchesResample pins the in-place front end
// against an out-of-place reference of the same resampler, for a clock
// running fast and slow: the walk order must never read a sample it
// has already overwritten. The reference rotates by the injector's own
// phasor blocks, so the comparison is bit for bit.
func TestFrontEndInPlaceMatchesResample(t *testing.T) {
	for _, ppm := range []float64{40, -40} {
		in, err := NewInjector(&Profile{CFOHz: 500, SCOPpm: ppm}, 1, 20e6, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := randomWave(4096, 5)
		eps := ppm * 1e-6
		step := 2 * math.Pi * 500 / 20e6
		sw, cw := math.Sincos(step)
		ph := make([]complex128, len(x))
		for lo := 0; lo < len(x); lo += phasorBlock {
			phasors(ph[lo:min(lo+phasorBlock, len(x))], step, complex(cw, sw), lo)
		}
		want := make([]complex128, len(x))
		for n := range want {
			pos := float64(n) * (1 + eps)
			i := int(pos)
			v := x[len(x)-1]
			if i < len(x)-1 {
				frac := complex(pos-float64(i), 0)
				v = x[i]*(1-frac) + x[i+1]*frac
			}
			want[n] = v * ph[n]
		}
		in.ApplyFrontEnd(x)
		for n := range x {
			if x[n] != want[n] {
				t.Fatalf("SCO %+g ppm: sample %d = %v, want %v", ppm, n, x[n], want[n])
			}
		}
	}
}

// TestFrontEndRecurrenceAccuracy holds the CFO phasor recurrence to
// within 1e-12 of math.Sincos over 2·10⁵ samples, at 50 Hz and 500 Hz
// and for both SCO walk directions.
func TestFrontEndRecurrenceAccuracy(t *testing.T) {
	const n = 200000
	for _, cfo := range []float64{50, 500} {
		for _, ppm := range []float64{5, -5} {
			in, err := NewInjector(&Profile{CFOHz: cfo, SCOPpm: ppm}, 1, 20e6, nil)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]complex128, n)
			for i := range x {
				x[i] = 1
			}
			in.ApplyFrontEnd(x) // resampling a constant leaves it at 1 ± 1 ulp
			step := 2 * math.Pi * cfo / 20e6
			worst := 0.0
			for i, v := range x[:n-1] {
				s, c := math.Sincos(step * float64(i))
				worst = max(worst, cmplx.Abs(v-complex(c, s)))
			}
			if worst > 1e-12 {
				t.Errorf("CFO %v Hz, SCO %+v ppm: max |error| %.3g vs Sincos, want ≤ 1e-12", cfo, ppm, worst)
			}
		}
	}
}

// TestPhaseNoiseWienerVariance checks the tag phase-noise walk against
// its model: the phase increment over a lag of n samples has variance
// 2π·linewidth·n/fs, and the running rotation keeps unit magnitude to
// 1e-12 over 10⁶ samples.
func TestPhaseNoiseWienerVariance(t *testing.T) {
	const (
		n  = 1000000
		lw = 300.0
		fs = 20e6
	)
	in, err := NewInjector(&Profile{PhaseNoiseHz: lw}, 3, fs, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := make([]complex128, n)
	for i := range m {
		m[i] = 1
	}
	in.ApplyTagPhaseNoise(m)
	for i, v := range m {
		if d := math.Abs(cmplx.Abs(v) - 1); d > 1e-12 {
			t.Fatalf("sample %d: |rotation| = 1%+.3g", i, d)
		}
	}
	for _, lag := range []int{1, 10, 100, 1000} {
		// Non-overlapping increments are independent: their sample
		// variance has relative standard error √(2/k).
		var sum float64
		k := 0
		for i := 0; i+lag < n; i += lag {
			d := cmplx.Phase(m[i+lag] * cmplx.Conj(m[i]))
			sum += d * d
			k++
		}
		got := sum / float64(k)
		want := 2 * math.Pi * lw * float64(lag) / fs
		if z := (got/want - 1) / math.Sqrt(2/float64(k)); math.Abs(z) > 4 {
			t.Errorf("lag %d: phase variance %.4g, want %.4g (z = %.1f)", lag, got, want, z)
		}
	}
}

// BenchmarkChannelKernels times the per-sample channel kernels over one
// fault_2m frame's capture window (6,684 samples) at
// fault.Standard(0.1), into preallocated buffers. CI gates it at 0
// allocs/op: block buffers live on the stack, never per session.
func BenchmarkChannelKernels(b *testing.B) {
	const n = 6684
	p := Standard(0.1)
	in, err := NewInjector(&p, 1, 20e6, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := randomWave(n, 1)
	buf := make([]complex128, n)
	noise := channel.NewAWGN(rng.NewSource(1), 1e-12)
	dist := channel.NewTxDistortion(rng.NewSource(2), -28)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"TxDistortion", func() { dist.ApplyInto(buf, x) }},
		{"AWGN", func() { noise.AddInPlaceRange(buf, 0, n) }},
		{"FrontEnd", func() { copy(buf, x); in.ApplyFrontEnd(buf) }},
		{"TagPhaseNoise", func() { copy(buf, x); in.ApplyTagPhaseNoise(buf) }},
		{"Interference", func() { copy(buf, x); in.AddInterference(buf) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				k.run()
			}
		})
	}
}
