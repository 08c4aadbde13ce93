package experiments

import (
	"math"
	"strings"
	"testing"

	"backfi/internal/tag"
)

func TestFig7TableMatchesPaper(t *testing.T) {
	rows, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if len(row.Cells) != 6 {
			t.Fatalf("%d cells", len(row.Cells))
		}
		for _, c := range row.Cells {
			if rel := math.Abs(c.ModelREPB-c.PublishedREPB) / c.PublishedREPB; rel > 0.005 {
				t.Fatalf("cell (%v,%v,%v): model %v vs paper %v", c.Mod, c.Coding, c.SymbolRateHz, c.ModelREPB, c.PublishedREPB)
			}
		}
	}
	// Spot-check the headline cell: 16PSK 2/3 at 2.5 MHz → 6.67 Mbps.
	last := rows[5].Cells[5]
	if math.Abs(last.ThroughputBps-6.6667e6) > 1e3 {
		t.Fatalf("headline throughput cell %v", last.ThroughputBps)
	}
	if !strings.Contains(RenderFig7(rows), "16PSK") {
		t.Fatal("render missing modulation labels")
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	// 12 trials, not QuickOptions' 3: the 7 m preamble comparison below
	// is a coin flip at 3 (it fails on 8 of seeds 1–64) and holds on
	// every seed tried at 12.
	opt := QuickOptions()
	opt.Trials = 12
	rows, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	byDist := map[float64]Fig8Row{}
	for _, r := range rows {
		byDist[r.DistanceM] = r
	}
	// Paper-shape assertions (±1 rate step of slack):
	if byDist[0.5].Best32Bps < 5e6 {
		t.Fatalf("0.5 m: %v bps, want ≥ 5 Mbps", byDist[0.5].Best32Bps)
	}
	if byDist[1].Best32Bps < 3e6 {
		t.Fatalf("1 m: %v bps, want ≥ 3 Mbps", byDist[1].Best32Bps)
	}
	if byDist[5].Best32Bps < 0.5e6 {
		t.Fatalf("5 m: %v bps, want ≥ 0.5 Mbps", byDist[5].Best32Bps)
	}
	// Non-increasing with distance (allow one small inversion from
	// Monte-Carlo noise).
	inversions := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].Best32Bps > rows[i-1].Best32Bps*1.01 {
			inversions++
		}
	}
	if inversions > 1 {
		t.Fatalf("%d throughput inversions with distance", inversions)
	}
	// The 96 µs preamble must help (or at least not hurt) at the edge;
	// allow one rate step of Monte-Carlo slack at the marginal config.
	if byDist[7].Best96Bps < byDist[7].Best32Bps*0.7 {
		t.Fatalf("96 µs preamble worse at 7 m: %v vs %v", byDist[7].Best96Bps, byDist[7].Best32Bps)
	}
}

func TestFig9FrontiersWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	// 12 trials, not QuickOptions' 3: a cutoff is the fastest
	// configuration that decoded ≥ 90% of its trials, so at 3 one lucky
	// range can outrun the range before it. At 3 trials the cutoff
	// comparison below failed on 2 of seeds 1–30 under the old
	// seed-plus-offset rule and on 1 (seed 1) under the current one; at
	// 12 it held on all of seeds 1–40 under either.
	opt := QuickOptions()
	opt.Trials = 12
	curves, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != len(Fig9Ranges) {
		t.Fatalf("%d curves", len(curves))
	}
	var prevMax float64 = math.Inf(1)
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Fatalf("empty frontier at %v m", c.DistanceM)
		}
		// Frontier sorted by throughput.
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].ThroughputBps < c.Points[i-1].ThroughputBps {
				t.Fatalf("frontier unsorted at %v m", c.DistanceM)
			}
		}
		// Vertical cutoff non-increasing with range (one inversion of
		// Monte-Carlo slack allowed via 10% factor).
		if c.MaxThroughputBps() > prevMax*1.35 {
			t.Fatalf("cutoff grew with range at %v m: %v > %v", c.DistanceM, c.MaxThroughputBps(), prevMax)
		}
		prevMax = c.MaxThroughputBps()
		// Paper: REPB mostly between 0.5 and 3 for feasible points.
		for _, p := range c.Points {
			if p.REPB < 0.3 || p.REPB > 50 {
				t.Fatalf("REPB %v out of plausible range", p.REPB)
			}
		}
	}
}

func TestFig10StepsWithRange(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	rows, err := Fig10(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 1.25 Mbps: achievable at short range, REPB non-decreasing-ish
	// with range, infeasible (or costly) far out.
	var low []Fig10Row
	for _, r := range rows {
		if r.TargetBps == 1.25e6 {
			low = append(low, r)
		}
	}
	if !low[0].Achieved {
		t.Fatal("1.25 Mbps must be achievable at 0.5 m")
	}
	// 5 Mbps must be achievable close and infeasible at 5 m.
	var five []Fig10Row
	for _, r := range rows {
		if r.TargetBps == 5e6 {
			five = append(five, r)
		}
	}
	if !five[0].Achieved {
		t.Fatal("5 Mbps must be achievable at 0.5 m")
	}
	if five[len(five)-1].Achieved {
		t.Fatal("5 Mbps should be infeasible at 5 m")
	}
}

func TestFig11aScatterAndMedian(t *testing.T) {
	res, err := Fig11a(6, 2, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 12 {
		t.Fatalf("%d points", len(res.Points))
	}
	// Measured tracks expected: positive correlation and bounded
	// median degradation.
	if res.MedianDegradationDB < 0 || res.MedianDegradationDB > 12 {
		t.Fatalf("median degradation %v dB", res.MedianDegradationDB)
	}
	var cov, vx, vy, mx, my float64
	for _, p := range res.Points {
		mx += p.ExpectedSNRdB
		my += p.MeasuredSNRdB
	}
	mx /= float64(len(res.Points))
	my /= float64(len(res.Points))
	for _, p := range res.Points {
		cov += (p.ExpectedSNRdB - mx) * (p.MeasuredSNRdB - my)
		vx += (p.ExpectedSNRdB - mx) * (p.ExpectedSNRdB - mx)
		vy += (p.MeasuredSNRdB - my) * (p.MeasuredSNRdB - my)
	}
	if rho := cov / math.Sqrt(vx*vy); rho < 0.7 {
		t.Fatalf("expected/measured correlation %v", rho)
	}
}

func TestFig11bWaterfall(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	rows, err := Fig11b(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	// For each modulation: BER at the lowest symbol rate must be far
	// below BER at the highest (the MRC waterfall).
	for _, mod := range []tag.Modulation{tag.BPSK, tag.QPSK} {
		var hi, lo float64
		var hiSNR, loSNR float64
		for _, r := range rows {
			if r.Mod != mod {
				continue
			}
			if r.SymbolRateHz == 2.5e6 {
				hi, hiSNR = r.RawBER, r.MeanSNRdB
			}
			if r.SymbolRateHz == 100e3 {
				lo, loSNR = r.RawBER, r.MeanSNRdB
			}
		}
		if loSNR <= hiSNR+5 {
			t.Fatalf("%v: SNR should grow ≥5 dB from 2.5 MHz to 100 kHz (%v vs %v)", mod, loSNR, hiSNR)
		}
		if lo > hi/2 && hi > 1e-4 {
			t.Fatalf("%v: BER did not fall with symbol period: %v vs %v", mod, lo, hi)
		}
	}
}

func TestFig12aLoadedNetworkMedian(t *testing.T) {
	res, err := Fig12a(20, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerAPBps) != 20 {
		t.Fatalf("%d APs", len(res.PerAPBps))
	}
	// Paper: median ≈ 4 Mbps ≈ 80% of the 5 Mbps optimum.
	frac := res.FractionOfOptimal()
	if frac < 0.5 || frac > 0.98 {
		t.Fatalf("median fraction of optimal %v", frac)
	}
}

func TestFig12bImpactDecaysWithTagDistance(t *testing.T) {
	if testing.Short() {
		t.Skip("physical PHY Monte-Carlo")
	}
	rows, err := Fig12b(3, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	near := rows[0]
	far := rows[len(rows)-1]
	if near.TagDistanceM != 0.25 {
		t.Fatalf("first row %v", near.TagDistanceM)
	}
	// Far tags must cost (almost) nothing; near tags may cost a little
	// but must not collapse the network (paper: ≤10%).
	if far.DropFraction > 0.15 {
		t.Fatalf("distant tag drop %v", far.DropFraction)
	}
	if near.DropFraction > 0.5 {
		t.Fatalf("near tag drop %v too destructive", near.DropFraction)
	}
}

func TestFig13OnlyTopRatesSuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("physical PHY Monte-Carlo")
	}
	rows, err := Fig13(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	// Low rates: negligible throughput impact even with the tag at
	// 0.25 m (paper Fig. 13a).
	for _, r := range rows {
		if r.WiFiMbps <= 12 {
			drop := 1 - r.Result.ThroughputOnBps/math.Max(r.Result.ThroughputOffBps, 1)
			if drop > 0.25 {
				t.Fatalf("%d Mbps: drop %v too large", r.WiFiMbps, drop)
			}
		}
		// SNR degradation bounded everywhere.
		if d := r.Result.SNRDegradationDB(); d > 6 {
			t.Fatalf("%d Mbps: SNR degradation %v dB", r.WiFiMbps, d)
		}
	}
}

func TestHeadlineOrdersOfMagnitude(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	h, err := Headline(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.BackFiAt1mBps < 3e6 {
		t.Fatalf("BackFi @1 m %v bps", h.BackFiAt1mBps)
	}
	if h.BackFiAt5mBps < 0.5e6 {
		t.Fatalf("BackFi @5 m %v bps", h.BackFiAt5mBps)
	}
	if h.SpeedupAt1m() < 1000 {
		t.Fatalf("speedup %v×, paper claims 3 orders of magnitude", h.SpeedupAt1m())
	}
	if h.ToneResidualDB < 30 {
		t.Fatalf("tone residual %v dB — wideband failure should be dramatic", h.ToneResidualDB)
	}
	if !strings.Contains(RenderHeadline(h), "speedup") {
		t.Fatal("render incomplete")
	}
}

func TestRenderersNonEmpty(t *testing.T) {
	rows7, _ := Fig7()
	if RenderFig7(rows7) == "" {
		t.Fatal("empty Fig7 render")
	}
	if RenderFig8([]Fig8Row{{DistanceM: 1, Best32Bps: 5e6, Config32: "x", Best96Bps: 5e6, Config96: "y"}}) == "" {
		t.Fatal("empty Fig8 render")
	}
	if RenderFig10([]Fig10Row{{DistanceM: 1, TargetBps: 1.25e6}}) == "" {
		t.Fatal("empty Fig10 render")
	}
	if RenderFig12b([]Fig12bRow{{TagDistanceM: 0.25}}) == "" {
		t.Fatal("empty Fig12b render")
	}
	if RenderFig13([]Fig13Row{{WiFiMbps: 6}}) == "" {
		t.Fatal("empty Fig13 render")
	}
	if RenderFig11b([]Fig11bRow{{Mod: tag.BPSK, SymbolRateHz: 1e6}}) == "" {
		t.Fatal("empty Fig11b render")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials <= 0 || o.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if QuickOptions().Trials >= DefaultOptions().Trials {
		t.Fatal("quick should be cheaper than default")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	if percentile(v, 0.5) != 3 {
		t.Fatalf("median = %v", percentile(v, 0.5))
	}
	if percentile(v, 0) != 1 || percentile(v, 1) != 5 {
		t.Fatal("percentile endpoints wrong")
	}
	if percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Linear interpolation between order statistics: p90 of the sorted
	// odd slice [1..5] sits at position 3.6 → 4 + 0.6·(5−4).
	if got := percentile(v, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Fatalf("odd p90 = %v, want 4.6", got)
	}
	// Even-length slices have no middle element; the median must
	// interpolate, not truncate to an index.
	even := []float64{4, 1, 3, 2}
	if got := percentile(even, 0.5); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("even median = %v, want 2.5", got)
	}
	if got := percentile(even, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Fatalf("even p90 = %v, want 3.7", got)
	}
	// The input slice must not be reordered by the call.
	if v[0] != 5 || v[4] != 4 {
		t.Fatalf("percentile mutated its input: %v", v)
	}
	// percentileSorted agrees with percentile on pre-sorted data.
	sorted := []float64{1, 2, 3, 4, 5}
	if percentileSorted(sorted, 0.9) != percentile(sorted, 0.9) {
		t.Fatal("percentileSorted disagrees with percentile")
	}
}

func TestFig12aDCFVariant(t *testing.T) {
	res, err := Fig12aDCF(10, QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerAPBps) != 10 {
		t.Fatalf("%d APs", len(res.PerAPBps))
	}
	// Contention-derived airtime still delivers a large fraction of the
	// optimum in downlink-heavy cells.
	if frac := res.FractionOfOptimal(); frac < 0.3 || frac > 0.98 {
		t.Fatalf("DCF median fraction %v", frac)
	}
}

func TestExcitationComparisonGenerality(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	rows, err := ExcitationComparison(Options{Trials: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byKind := map[string]ExcitationRow{}
	for _, r := range rows {
		byKind[r.Excitation] = r
	}
	// The generality claim: every excitation family carries the link.
	for _, kind := range []string{"wifi", "11b", "zigbee", "ble", "white"} {
		if byKind[kind].SuccessRate < 0.75 {
			t.Fatalf("%s excitation success %v", kind, byKind[kind].SuccessRate)
		}
	}
	// Narrowband excitations occupy far less of the band than WiFi.
	if byKind["ble"].BandOccupancy >= byKind["wifi"].BandOccupancy {
		t.Fatalf("BLE occupancy %v should be below WiFi %v",
			byKind["ble"].BandOccupancy, byKind["wifi"].BandOccupancy)
	}
	if RenderExcitation(rows) == "" {
		t.Fatal("empty render")
	}
}

func TestMIMOExtensionHelpsAtRange(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte-Carlo sweep")
	}
	rows, err := MIMOExtension(Options{Trials: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	get := func(nrx int, d float64) MIMORow {
		for _, r := range rows {
			if r.Antennas == nrx && r.DistanceM == d {
				return r
			}
		}
		t.Fatalf("missing row %d/%v", nrx, d)
		return MIMORow{}
	}
	// More antennas → higher combined SNR at every range.
	for _, d := range []float64{3, 5, 7} {
		if get(4, d).MeanJointSNRdB <= get(1, d).MeanJointSNRdB {
			t.Fatalf("4 antennas not above 1 at %v m: %v vs %v",
				d, get(4, d).MeanJointSNRdB, get(1, d).MeanJointSNRdB)
		}
	}
	// And success at the far edge does not get worse.
	if get(4, 7).SuccessRate < get(1, 7).SuccessRate {
		t.Fatalf("4 antennas worse at 7 m: %v vs %v", get(4, 7).SuccessRate, get(1, 7).SuccessRate)
	}
}
