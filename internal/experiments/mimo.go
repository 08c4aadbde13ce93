package experiments

import (
	"errors"
	"fmt"

	"backfi/internal/core"
	"backfi/internal/parallel"
)

// MIMORow is one (antennas, range) point of the Sec. 7 extension
// study.
type MIMORow struct {
	Antennas  int
	DistanceM float64
	// SuccessRate of the paper's 1 Mbps operating configuration
	// (QPSK 1/2 @ 1 Msym/s).
	SuccessRate float64
	// MeanJointSNRdB is the cross-antenna combined symbol SNR.
	MeanJointSNRdB float64
}

// MIMOExtension quantifies the paper's Sec. 7 prediction: "multiple
// antennas at the AP provides additional diversity combining gain ...
// BackFi's range and throughput can be enhanced further". It sweeps
// receive-antenna counts over range with the fixed 1 Mbps
// configuration and reports where the link holds.
func MIMOExtension(opt Options) ([]MIMORow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("mimo")
	defer sp.End()
	antennas := []int{1, 2, 4}
	dists := []float64{3, 5, 7, 9}
	rows := make([]MIMORow, len(antennas)*len(dists))
	err := parallel.ForEachErr(len(rows), opt.Workers, func(k int) error {
		nrx, d := antennas[k/len(dists)], dists[k%len(dists)]
		row := MIMORow{Antennas: nrx, DistanceM: d}
		ok := 0
		var snr float64
		n := 0
		for trial := 0; trial < opt.Trials; trial++ {
			cfg := core.DefaultLinkConfig(d)
			cfg.Seed = opt.trialSeed("mimo", 0, trial) // same placements at every point
			cfg.Obs = opt.Obs
			cfg.Faults = opt.Faults
			link, err := core.NewMIMOLink(cfg, nrx)
			if err != nil {
				return err
			}
			res, err := link.RunPacket(link.RandomPayload(24))
			if err != nil {
				if !errors.Is(err, core.ErrTagNoWake) {
					return err
				}
				continue // wake failure at extreme range counts as loss
			}
			n++
			if res.PayloadOK {
				ok++
			}
			snr += res.MeasuredSNRdB
		}
		row.SuccessRate = float64(ok) / float64(opt.Trials)
		if n > 0 {
			row.MeanJointSNRdB = snr / float64(n)
		}
		rows[k] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderMIMO prints the extension study.
func RenderMIMO(rows []MIMORow) string {
	header := []string{"Antennas", "Range(m)", "Success", "Joint SNR(dB)"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Antennas),
			fmt.Sprintf("%.0f", r.DistanceM),
			fmt.Sprintf("%.2f", r.SuccessRate),
			fmt.Sprintf("%.1f", r.MeanJointSNRdB),
		})
	}
	return table(header, out)
}
