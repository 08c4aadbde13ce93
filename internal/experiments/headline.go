package experiments

import (
	"fmt"

	"backfi/internal/baseline"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// HeadlineResult captures the paper's abstract-level claims: BackFi's
// throughput at 1 m and 5 m, and the prior WiFi-backscatter system's
// throughput at its best (≤1 m) for comparison.
type HeadlineResult struct {
	BackFiAt1mBps  float64
	Config1m       string
	BackFiAt5mBps  float64
	Config5m       string
	PriorAt05mBps  float64
	PriorAt3mBps   float64
	ToneResidualDB float64 // single-tap cancellation residual on wideband (why RFID readers can't do this)
}

// SpeedupAt1m returns BackFi's factor over the prior system.
func (h *HeadlineResult) SpeedupAt1m() float64 {
	if h.PriorAt05mBps <= 0 {
		return 0
	}
	return h.BackFiAt1mBps / h.PriorAt05mBps
}

// Headline measures the comparison. Its five independent measurements
// each fill their own fields, so they run concurrently under
// opt.Workers.
func Headline(opt Options) (*HeadlineResult, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("headline")
	defer sp.End()
	res := &HeadlineResult{}
	tasks := []func() error{
		func() (err error) {
			res.BackFiAt1mBps, res.Config1m, err = maxThroughputAt(1, tag.DefaultPreambleChips, opt, "headline", 0)
			return err
		},
		func() (err error) {
			res.BackFiAt5mBps, res.Config5m, err = maxThroughputAt(5, tag.DefaultPreambleChips, opt, "headline", 1)
			return err
		},
		func() error {
			res.PriorAt05mBps = baseline.SimulatePriorWiFi(baseline.DefaultPriorWiFiConfig(0.5), 4000, opt.trialSeed("headline", 2, 0)).ThroughputBps
			return nil
		},
		func() error {
			res.PriorAt3mBps = baseline.SimulatePriorWiFi(baseline.DefaultPriorWiFiConfig(3), 4000, opt.trialSeed("headline", 2, 0)).ThroughputBps
			return nil
		},
		func() error {
			res.ToneResidualDB = baseline.WidebandResidualDB(opt.trialSeed("headline", 3, 0), 10, -20)
			return nil
		},
	}
	if err := parallel.ForEachErr(len(tasks), opt.Workers, func(i int) error { return tasks[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}

// RenderHeadline prints the comparison.
func RenderHeadline(h *HeadlineResult) string {
	return fmt.Sprintf(`BackFi @1 m:  %.2f Mbps (%s)
BackFi @5 m:  %.2f Mbps (%s)
Prior WiFi backscatter @0.5 m: %.3f kbps
Prior WiFi backscatter @3 m:   %.3f kbps
BackFi/prior speedup @≈1 m:    %.0f×
Tone-style single-tap cancellation residual on a WiFi excitation: %.1f dB above the noise floor
`,
		h.BackFiAt1mBps/1e6, h.Config1m,
		h.BackFiAt5mBps/1e6, h.Config5m,
		h.PriorAt05mBps/1e3, h.PriorAt3mBps/1e3,
		h.SpeedupAt1m(), h.ToneResidualDB)
}
