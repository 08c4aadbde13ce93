package experiments

import (
	"fmt"

	"backfi/internal/core"
	"backfi/internal/fec"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// Fig11aPoint is one (location, run) of the cancellation benchmark:
// oracle-predicted post-MRC SNR vs the SNR the decoder actually
// measured.
type Fig11aPoint struct {
	Location      int
	ExpectedSNRdB float64
	MeasuredSNRdB float64
}

// Fig11aResult is the scatter plus its summary statistic.
type Fig11aResult struct {
	Points []Fig11aPoint
	// MedianDegradationDB is the median of expected − measured, the
	// paper's headline cancellation metric (they report < 2.3 dB from
	// SI residue alone; the full chain here also pays channel
	// estimation and TX-distortion costs).
	MedianDegradationDB float64
}

// Fig11a places the AP and tag at `locations` random placements
// (paper: 30) with `runsPerLocation` packets each (paper: 10) and
// scatters measured vs expected SNR. The (location, run) grid is
// flattened and filled concurrently under opt.Workers; each point's
// seed depends only on its indices, so the scatter is identical for
// every worker count.
func Fig11a(locations, runsPerLocation int, opt Options) (*Fig11aResult, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("11a")
	defer sp.End()
	res := &Fig11aResult{Points: make([]Fig11aPoint, locations*runsPerLocation)}
	degr := make([]float64, locations*runsPerLocation)
	err := parallel.ForEachErr(locations*runsPerLocation, opt.Workers, func(k int) error {
		loc, run := k/runsPerLocation, k%runsPerLocation
		// Distances spread over the paper's 0.5–5 m testbed.
		d := 0.5 + 4.5*float64(loc)/float64(max(locations-1, 1))
		cfg := core.DefaultLinkConfig(d)
		cfg.Seed = opt.Seed + int64(loc)*1000 + int64(run)
		cfg.Obs = opt.Obs
		cfg.Faults = opt.Faults
		link, err := core.NewLink(cfg)
		if err != nil {
			return err
		}
		pr, err := link.RunPacket(link.RandomPayload(60))
		if err != nil {
			return err
		}
		res.Points[k] = Fig11aPoint{
			Location:      loc,
			ExpectedSNRdB: pr.ExpectedMRCSNRdB,
			MeasuredSNRdB: pr.MeasuredSNRdB,
		}
		degr[k] = pr.ExpectedMRCSNRdB - pr.MeasuredSNRdB
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.MedianDegradationDB = percentile(degr, 0.5)
	return res, nil
}

// RenderFig11a prints the scatter summary.
func RenderFig11a(res *Fig11aResult) string {
	header := []string{"Loc", "Expected(dB)", "Measured(dB)", "Degr(dB)"}
	var out [][]string
	for _, p := range res.Points {
		out = append(out, []string{
			fmt.Sprintf("%d", p.Location),
			fmt.Sprintf("%.1f", p.ExpectedSNRdB),
			fmt.Sprintf("%.1f", p.MeasuredSNRdB),
			fmt.Sprintf("%.1f", p.ExpectedSNRdB-p.MeasuredSNRdB),
		})
	}
	s := table(header, out)
	return s + fmt.Sprintf("median degradation: %.2f dB\n", res.MedianDegradationDB)
}

// Fig11bRow is one (modulation, symbol rate) BER point of the MRC
// waterfall.
type Fig11bRow struct {
	Mod          tag.Modulation
	SymbolRateHz float64
	RawBER       float64
	MeanSNRdB    float64
}

// Fig11b sweeps tag symbol rate for BPSK and QPSK at rate 1/2 with a
// fixed placement (paper: BER falls like a waterfall as MRC gain
// grows with symbol period). The (modulation, rate) waterfall points
// run concurrently under opt.Workers; the trial accumulation inside a
// point stays in trial order so sums are bit-identical.
func Fig11b(opt Options) ([]Fig11bRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("11b")
	defer sp.End()
	const distance = 4.0 // noise-limited so the waterfall is visible
	rates := []float64{2.5e6, 2e6, 1e6, 500e3, 100e3}
	mods := []tag.Modulation{tag.BPSK, tag.QPSK}
	rows := make([]Fig11bRow, len(mods)*len(rates))
	err := parallel.ForEachErr(len(mods)*len(rates), opt.Workers, func(k int) error {
		mi, ri := k/len(rates), k%len(rates)
		mod, rs := mods[mi], rates[ri]
		var errBits, bits int
		var snr float64
		for trial := 0; trial < opt.Trials; trial++ {
			cfg := core.DefaultLinkConfig(distance)
			cfg.Tag.Mod = mod
			cfg.Tag.Coding = fec.Rate12
			cfg.Tag.SymbolRateHz = rs
			cfg.Seed = opt.Seed + int64(trial) // same placements across mods/rates
			cfg.Obs = opt.Obs
			cfg.Faults = opt.Faults
			link, err := core.NewLink(cfg)
			if err != nil {
				return err
			}
			n := 48
			if rs < 500e3 {
				n = 8
			}
			pr, err := link.RunPacket(link.RandomPayload(n))
			if err != nil {
				return err
			}
			errBits += pr.RawBitErrors
			bits += pr.RawBits
			snr += pr.MeasuredSNRdB
		}
		rows[k] = Fig11bRow{
			Mod:          mod,
			SymbolRateHz: rs,
			RawBER:       float64(errBits) / float64(max(bits, 1)),
			MeanSNRdB:    snr / float64(opt.Trials),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig11b prints the BER-vs-symbol-rate series.
func RenderFig11b(rows []Fig11bRow) string {
	header := []string{"Mod", "SymRate(MHz)", "raw BER", "SNR(dB)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Mod.String(),
			fmt.Sprintf("%.2f", r.SymbolRateHz/1e6),
			fmt.Sprintf("%.2e", r.RawBER),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
		})
	}
	return table(header, out)
}
