package experiments

import (
	"fmt"

	"backfi/internal/core"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// Fig10Targets are the fixed throughputs of paper Fig. 10.
var Fig10Targets = []float64{1.25e6, 5e6}

// Fig10Row is one (range, target throughput) point: the cheapest
// configuration achieving the target.
type Fig10Row struct {
	DistanceM float64
	TargetBps float64
	// REPB of the chosen config; 0 with Achieved=false when the target
	// is infeasible at this range.
	REPB     float64
	Config   string
	Achieved bool
}

// Fig10 computes REPB vs range at the paper's two fixed throughputs:
// for each range, sweep all configurations and pick the minimum-REPB
// one that still delivers the target. Ranges fill a pre-indexed row
// grid concurrently under opt.Workers.
func Fig10(opt Options) ([]Fig10Row, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("10")
	defer sp.End()
	cfgs := core.StandardConfigs(tag.DefaultPreambleChips, 1)
	ranges := []float64{0.5, 1, 2, 3, 4, 5}
	rows := make([]Fig10Row, len(ranges)*len(Fig10Targets))
	err := parallel.ForEachErr(len(ranges), opt.Workers, func(di int) error {
		d := ranges[di]
		results, err := sweepWithBudget(d, cfgs, opt, "10", di)
		if err != nil {
			return err
		}
		for ti, target := range Fig10Targets {
			row := Fig10Row{DistanceM: d, TargetBps: target}
			if f, ok := core.MinREPBAtThroughput(results, target); ok {
				row.REPB = f.REPB
				row.Config = f.Cfg.String()
				row.Achieved = true
			}
			rows[di*len(Fig10Targets)+ti] = row
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig10 prints the two REPB-vs-range series.
func RenderFig10(rows []Fig10Row) string {
	header := []string{"Range(m)", "Target(Mbps)", "REPB", "Config"}
	var out [][]string
	for _, r := range rows {
		repb, cfg := "infeasible", ""
		if r.Achieved {
			repb = fmt.Sprintf("%.3f", r.REPB)
			cfg = r.Config
		}
		out = append(out, []string{
			fmt.Sprintf("%.1f", r.DistanceM),
			mbps(r.TargetBps),
			repb, cfg,
		})
	}
	return table(header, out)
}
