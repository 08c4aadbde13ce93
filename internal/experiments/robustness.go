package experiments

import (
	"fmt"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// RobustnessRow is one (impairment severity, modulation) point of the
// hardening sweep: how the link degrades as the ideal front end of the
// paper's evaluation is replaced by an increasingly hostile one
// (DESIGN.md §5d).
type RobustnessRow struct {
	// Severity is the fault.Standard knob in [0,1]; 0 is the paper's
	// ideal front end.
	Severity float64
	// Mod is the tag modulation under test at 1 Msym/s rate-1/2.
	Mod tag.Modulation
	// SuccessRate / MeanRawBER / MeanSNRdB summarize opt.Trials
	// placements at 1 m.
	SuccessRate float64
	MeanRawBER  float64
	MeanSNRdB   float64
	// WakeRate is the fraction of trials whose tag woke and produced a
	// decode attempt (denominator of the BER/SNR means).
	WakeRate float64
}

// Robustness sweeps fault.Standard severities against the tag
// modulation ladder at the paper's 1 m headline point (1 Msym/s,
// rate 1/2). Severity 0 must reproduce the unfaulted link exactly;
// denser constellations should fall off the cliff first as phase noise
// and interference eat the decision margin. Options.Faults is ignored
// here — the sweep owns the impairment axis.
func Robustness(opt Options) ([]RobustnessRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("robustness")
	defer sp.End()

	severities := []float64{0, 0.25, 0.5, 0.75, 1}
	mods := []tag.Modulation{tag.BPSK, tag.QPSK, tag.PSK16}
	const distance = 1.0
	const payloadBytes = 24

	rows := make([]RobustnessRow, len(severities)*len(mods))
	err := parallel.ForEachErr(len(rows), opt.Workers, func(k int) error {
		sev := severities[k/len(mods)]
		mod := mods[k%len(mods)]
		tcfg := tag.Config{Mod: mod, Coding: fec.Rate12, SymbolRateHz: 1e6,
			PreambleChips: tag.DefaultPreambleChips, ID: 1}
		var profile *fault.Profile
		if sev > 0 {
			p := fault.Standard(sev)
			profile = &p
		}
		rdr := core.DefaultLinkConfig(distance).Reader
		f, err := core.Evaluate(channel.DefaultConfig(distance), tcfg, rdr,
			profile, opt.Trials, payloadBytes, opt.trialSeed("robustness", k, 0), opt.Workers)
		if err != nil {
			return err
		}
		rows[k] = RobustnessRow{
			Severity:    sev,
			Mod:         mod,
			SuccessRate: f.SuccessRate,
			MeanRawBER:  f.MeanRawBER,
			MeanSNRdB:   f.MeanSNRdB,
			WakeRate:    f.WakeRate,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderRobustness prints the sweep grouped by severity.
func RenderRobustness(rows []RobustnessRow) string {
	header := []string{"Severity", "Mod", "Success", "Wake", "SNR(dB)", "raw BER"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.Severity),
			r.Mod.String(),
			fmt.Sprintf("%.2f", r.SuccessRate),
			fmt.Sprintf("%.2f", r.WakeRate),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
			fmt.Sprintf("%.2e", r.MeanRawBER),
		})
	}
	return table(header, out)
}
