package experiments

import (
	"fmt"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/parallel"
	"backfi/internal/reader"
	"backfi/internal/tag"
)

// Fig9Ranges are the per-curve distances of paper Fig. 9.
var Fig9Ranges = []float64{0.5, 1, 2, 4, 5}

// Fig9Curve is one range's REPB-vs-throughput frontier: for every
// achievable throughput among decodable configurations, the minimum
// REPB.
type Fig9Curve struct {
	DistanceM float64
	Points    []core.Feasibility
}

// MaxThroughputBps returns the curve's vertical-cutoff throughput.
func (c Fig9Curve) MaxThroughputBps() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[len(c.Points)-1].ThroughputBps
}

// Fig9 sweeps all Fig. 7 configurations at each range and reduces to
// the min-REPB frontier (paper Fig. 9). Ranges run concurrently under
// opt.Workers, as do the configurations and trials inside each sweep.
func Fig9(opt Options) ([]Fig9Curve, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("9")
	defer sp.End()
	cfgs := core.StandardConfigs(tag.DefaultPreambleChips, 1)
	curves := make([]Fig9Curve, len(Fig9Ranges))
	err := parallel.ForEachErr(len(Fig9Ranges), opt.Workers, func(di int) error {
		d := Fig9Ranges[di]
		results, err := sweepWithBudget(d, cfgs, opt, "9", di)
		if err != nil {
			return err
		}
		curves[di] = Fig9Curve{DistanceM: d, Points: core.ParetoREPB(results)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}

// sweepWithBudget evaluates every configuration, shrinking payloads at
// very low symbol rates to bound excitation length. Configurations
// fill a pre-indexed result slice concurrently; configuration i draws
// its trials under (fig, point, i).
func sweepWithBudget(d float64, cfgs []tag.Config, opt Options, fig string, point int) ([]core.Feasibility, error) {
	rdr := reader.DefaultConfig()
	rdr.Obs = opt.Obs
	out := make([]core.Feasibility, len(cfgs))
	err := parallel.ForEachErr(len(cfgs), opt.Workers, func(i int) error {
		c := cfgs[i]
		payload := 24
		if c.SymbolRateHz < 100e3 {
			payload = 4
		}
		f, err := core.Evaluate(channel.DefaultConfig(d), c, rdr, opt.Faults, opt.Trials, payload, opt.trialSeed(fig, point, i), opt.Workers)
		if err != nil {
			return err
		}
		out[i] = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFig9 prints each range's frontier.
func RenderFig9(curves []Fig9Curve) string {
	header := []string{"Range(m)", "Thrput(Mbps)", "REPB", "Config"}
	var out [][]string
	for _, c := range curves {
		for _, p := range c.Points {
			out = append(out, []string{
				fmt.Sprintf("%.1f", c.DistanceM),
				mbps(p.ThroughputBps),
				fmt.Sprintf("%.3f", p.REPB),
				p.Cfg.String(),
			})
		}
		out = append(out, []string{
			fmt.Sprintf("%.1f", c.DistanceM), "cutoff → " + mbps(c.MaxThroughputBps()), "", "",
		})
	}
	return table(header, out)
}
