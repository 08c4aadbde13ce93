package experiments

import (
	"fmt"
	"sort"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/parallel"
	"backfi/internal/reader"
	"backfi/internal/tag"
)

// Fig8Distances are the evaluated AP–tag ranges (paper: 0.5–7 m).
var Fig8Distances = []float64{0.5, 1, 2, 3, 4, 5, 6, 7}

// Fig8Row is one range point: the maximum decodable throughput with
// the standard 32 µs tag preamble and the extended 96 µs one.
type Fig8Row struct {
	DistanceM float64
	Best32Bps float64
	Config32  string
	Best96Bps float64
	Config96  string
}

// Fig8 reproduces throughput vs range for the two preamble durations.
// For each distance it scans the Fig. 7 configurations from fastest to
// slowest and reports the first that decodes reliably. The
// (distance, preamble) points run concurrently under opt.Workers; each
// point writes its own row fields, so output is independent of the
// worker count.
func Fig8(opt Options) ([]Fig8Row, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("8")
	defer sp.End()
	preambles := []int{tag.DefaultPreambleChips, tag.ExtendedPreambleChips}
	rows := make([]Fig8Row, len(Fig8Distances))
	for di, d := range Fig8Distances {
		rows[di].DistanceM = d
	}
	err := parallel.ForEachErr(len(Fig8Distances)*len(preambles), opt.Workers, func(k int) error {
		di, pi := k/len(preambles), k%len(preambles)
		bps, name, err := maxThroughputAt(Fig8Distances[di], preambles[pi], opt, "8", di)
		if err != nil {
			return err
		}
		if preambles[pi] == tag.DefaultPreambleChips {
			rows[di].Best32Bps, rows[di].Config32 = bps, name
		} else {
			rows[di].Best96Bps, rows[di].Config96 = bps, name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// maxThroughputAt finds the fastest decodable configuration at one
// distance. Configurations are scanned in descending bit-rate order so
// the scan can stop at the first success; configuration i draws its
// trials under (fig, point, i), so both preambles at one distance see
// the same placements.
func maxThroughputAt(d float64, preambleChips int, opt Options, fig string, point int) (float64, string, error) {
	cfgs := core.StandardConfigs(preambleChips, 1)
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].BitRate() > cfgs[j].BitRate() })
	rdr := reader.DefaultConfig()
	rdr.Obs = opt.Obs
	for i, c := range cfgs {
		payload := 24
		if c.SymbolRateHz < 100e3 {
			payload = 4 // keep very-low-rate excitations tractable
		}
		f, err := core.Evaluate(channel.DefaultConfig(d), c, rdr, opt.Faults, opt.Trials, payload, opt.trialSeed(fig, point, i), opt.Workers)
		if err != nil {
			return 0, "", err
		}
		if f.Decodable() {
			return f.ThroughputBps, c.String(), nil
		}
	}
	return 0, "none", nil
}

// RenderFig8 prints the two throughput-vs-range series.
func RenderFig8(rows []Fig8Row) string {
	header := []string{"Range(m)", "32µs Mbps", "32µs config", "96µs Mbps", "96µs config"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.1f", r.DistanceM),
			mbps(r.Best32Bps), r.Config32,
			mbps(r.Best96Bps), r.Config96,
		})
	}
	return table(header, out)
}
