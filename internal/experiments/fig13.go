package experiments

import (
	"fmt"

	"backfi/internal/mac"
	"backfi/internal/parallel"
)

// Fig13Row is one WiFi-bitrate point of the worst-case micro-benchmark
// (tag at 0.25 m from the AP): it carries both Fig. 13a (throughput)
// and Fig. 13b (SNR degradation).
type Fig13Row struct {
	WiFiMbps int
	// ClientDistanceM is where the client was placed so it just
	// sustains this rate.
	ClientDistanceM float64
	Result          mac.ImpactResult
}

// Fig13 places a single client at the distance appropriate for each
// WiFi bitrate and measures PHY throughput and SNR with the tag on and
// off (paper: only the 54 Mbps point shows a noticeable difference).
// The bitrate points fill a pre-indexed row slice concurrently under
// opt.Workers.
func Fig13(opt Options) ([]Fig13Row, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("13")
	defer sp.End()
	rates := []int{6, 9, 12, 18, 24, 36, 48, 54}
	rows := make([]Fig13Row, len(rates))
	err := parallel.ForEachErr(len(rates), opt.Workers, func(i int) error {
		mbpsRate := rates[i]
		cd, err := mac.ClientDistanceForRate(mbpsRate, 20, 3.5, 5)
		if err != nil {
			return err
		}
		cfg := mac.DefaultImpactConfig(mbpsRate, cd)
		res, err := mac.SimulateClientImpact(cfg, opt.Trials*4, opt.trialSeed("13", i, 0))
		if err != nil {
			return err
		}
		rows[i] = Fig13Row{WiFiMbps: mbpsRate, ClientDistanceM: cd, Result: res}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderFig13 prints both panels.
func RenderFig13(rows []Fig13Row) string {
	header := []string{"Rate(Mbps)", "Client(m)", "Tput on", "Tput off", "PER on", "PER off", "SNR degr(dB)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.WiFiMbps),
			fmt.Sprintf("%.1f", r.ClientDistanceM),
			mbps(r.Result.ThroughputOnBps),
			mbps(r.Result.ThroughputOffBps),
			fmt.Sprintf("%.2f", r.Result.PEROn),
			fmt.Sprintf("%.2f", r.Result.PEROff),
			fmt.Sprintf("%.2f", r.Result.SNRDegradationDB()),
		})
	}
	return table(header, out)
}
