package experiments

import (
	"fmt"
	"sort"

	"backfi/internal/mac"
	"backfi/internal/parallel"
	"backfi/internal/rng"
)

// Fig12aResult is the loaded-network throughput distribution.
type Fig12aResult struct {
	// PerAPBps is the BackFi throughput under each AP's trace.
	PerAPBps []float64
	// MedianBps and the paper's comparison point.
	MedianBps float64
	// OptimalBps is the continuously-excited link rate at the tag's
	// range (5 Mbps at 1 m).
	OptimalBps float64
}

// FractionOfOptimal returns median/optimal (paper: ≈80%).
func (r *Fig12aResult) FractionOfOptimal() float64 {
	if r.OptimalBps == 0 {
		return 0
	}
	return r.MedianBps / r.OptimalBps
}

// Fig12a replays 20 loaded-AP airtime traces (paper: captured hotspot
// traces; here the synthetic generator spans the same load regimes)
// with the tag at 1 m, where the optimal continuously-excited rate is
// 5 Mbps. Every AP draws from its own index-derived RNG, so the trace
// set is independent of evaluation order and APs replay concurrently
// under opt.Workers.
func Fig12a(numAPs int, opt Options) (*Fig12aResult, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("12a")
	defer sp.End()
	opp := mac.DefaultOpportunityConfig()
	res := &Fig12aResult{OptimalBps: opp.LinkBps, PerAPBps: make([]float64, numAPs)}
	err := parallel.ForEachErr(numAPs, opt.Workers, func(ap int) error {
		r := rng.New(opt.trialSeed("12a", 0, ap))
		// Heavily loaded networks: AP airtime between 0.55 and 0.95.
		air := 0.55 + 0.4*r.Float64()
		cfg := mac.DefaultTraceConfig(air)
		cfg.HorizonSec = 5
		tr, err := mac.Generate(cfg, r)
		if err != nil {
			return err
		}
		res.PerAPBps[ap] = mac.Throughput(tr, opp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted := append([]float64{}, res.PerAPBps...)
	sort.Float64s(sorted)
	res.MedianBps = sorted[len(sorted)/2]
	return res, nil
}

// RenderFig12a prints the CDF.
func RenderFig12a(res *Fig12aResult) string {
	sorted := append([]float64{}, res.PerAPBps...)
	sort.Float64s(sorted)
	header := []string{"CDF", "Throughput(Mbps)"}
	var out [][]string
	for i, v := range sorted {
		out = append(out, []string{
			fmt.Sprintf("%.2f", float64(i+1)/float64(len(sorted))),
			mbps(v),
		})
	}
	s := table(header, out)
	return s + fmt.Sprintf("median %.2f Mbps = %.0f%% of the %.1f Mbps optimum\n",
		res.MedianBps/1e6, res.FractionOfOptimal()*100, res.OptimalBps/1e6)
}

// Fig12aDCF is the contention-derived variant of Fig. 12a: instead of
// statistical airtime traces, each AP's transmission schedule comes
// from an event-driven CSMA/CA (DCF) simulation of a downlink-heavy
// cell with a varying number of contending clients.
func Fig12aDCF(numAPs int, opt Options) (*Fig12aResult, error) {
	opt = opt.withDefaults()
	opp := mac.DefaultOpportunityConfig()
	res := &Fig12aResult{OptimalBps: opp.LinkBps, PerAPBps: make([]float64, numAPs)}
	err := parallel.ForEachErr(numAPs, opt.Workers, func(ap int) error {
		r := rng.New(opt.trialSeed("12aDCF", 0, ap))
		nClients := r.Intn(8)
		load := 0.1 + 0.5*r.Float64()
		dcf, err := mac.SimulateDCF(mac.DownlinkHeavyCell(nClients, load, 2_000_000), r)
		if err != nil {
			return err
		}
		res.PerAPBps[ap] = mac.Throughput(dcf.Trace, opp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sorted := append([]float64{}, res.PerAPBps...)
	sort.Float64s(sorted)
	res.MedianBps = sorted[len(sorted)/2]
	return res, nil
}

// Fig12bRow is one tag-distance point of the network-impact curve.
type Fig12bRow struct {
	TagDistanceM float64
	// MeanThroughputOnBps / OffBps average client PHY goodput across
	// client placements with the tag modulating / silent.
	MeanThroughputOnBps, MeanThroughputOffBps float64
	// DropFraction is 1 − on/off.
	DropFraction float64
}

// Fig12b sweeps the tag's distance from the AP and measures average
// WiFi client throughput with and without backscatter, across random
// client placements (paper: ≤10% drop at 0.25 m, negligible beyond).
// The (distance, client) pairs fill indexed on/off slots concurrently
// under opt.Workers; each row then reduces its clients in index order,
// so the sums match the historical sequential accumulation exactly.
func Fig12b(clients int, opt Options) ([]Fig12bRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("12b")
	defer sp.End()
	distances := []float64{0.25, 0.5, 1, 2, 4}
	type pair struct{ on, off float64 }
	cells := make([]pair, len(distances)*clients)
	err := parallel.ForEachErr(len(cells), opt.Workers, func(k int) error {
		di, c := k/clients, k%clients
		td := distances[di]
		mbpsRate := []int{6, 12, 24, 36, 54}[c%5]
		cd, err := mac.ClientDistanceForRate(mbpsRate, 20, 3.5, 5)
		if err != nil {
			return err
		}
		cfg := mac.DefaultImpactConfig(mbpsRate, cd)
		cfg.TagDistanceM = td
		res, err := mac.SimulateClientImpact(cfg, opt.Trials, opt.trialSeed("12b", di, c))
		if err != nil {
			return err
		}
		cells[k] = pair{on: res.ThroughputOnBps, off: res.ThroughputOffBps}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig12bRow, 0, len(distances))
	for di, td := range distances {
		var onSum, offSum float64
		for c := 0; c < clients; c++ {
			onSum += cells[di*clients+c].on
			offSum += cells[di*clients+c].off
		}
		row := Fig12bRow{
			TagDistanceM:         td,
			MeanThroughputOnBps:  onSum / float64(clients),
			MeanThroughputOffBps: offSum / float64(clients),
		}
		if row.MeanThroughputOffBps > 0 {
			row.DropFraction = 1 - row.MeanThroughputOnBps/row.MeanThroughputOffBps
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig12b prints the impact curve.
func RenderFig12b(rows []Fig12bRow) string {
	header := []string{"TagDist(m)", "WiFi w/ tag (Mbps)", "WiFi w/o tag (Mbps)", "Drop(%)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.TagDistanceM),
			mbps(r.MeanThroughputOnBps),
			mbps(r.MeanThroughputOffBps),
			fmt.Sprintf("%.1f", r.DropFraction*100),
		})
	}
	return table(header, out)
}
