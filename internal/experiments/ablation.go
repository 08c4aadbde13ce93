package experiments

import (
	"errors"
	"fmt"
	"math"

	"backfi/internal/channel"
	"backfi/internal/core"
	"backfi/internal/parallel"
	"backfi/internal/tag"
)

// AblationRow is one variant of one ablation study.
type AblationRow struct {
	// Study names the design choice being ablated.
	Study string
	// Variant names the configuration under test.
	Variant string
	// SuccessRate, MeanSNRdB, MeanRawBER summarize the link.
	SuccessRate float64
	MeanSNRdB   float64
	MeanRawBER  float64
}

// Ablations quantifies the design choices the paper argues for:
//
//   - the analog (PA-tapped) cancellation stage vs digital-only
//     (Sec. 4.2: TX noise must be cancelled in analog);
//   - the tag preamble length (Sec. 6.1 / Fig. 8: training time vs
//     channel-estimate quality at the range edge);
//   - transmit hardware quality (the EVM floor that bounds everything
//     at short range);
//   - the convolutional code (Sec. 4.1: raw symbol errors vs delivered
//     frames).
func Ablations(opt Options) ([]AblationRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("ablation")
	defer sp.End()

	// Build the study list in presentation order; the variants then fill
	// a pre-indexed row slice concurrently under opt.Workers.
	type job struct {
		study, variant string
		lcfg           core.LinkConfig
	}
	var jobs []job

	// --- Analog cancellation stage, at the paper's 1 m headline point.
	for _, variant := range []struct {
		name       string
		analogTaps int
	}{{"analog+digital (BackFi)", 16}, {"digital-only", 0}} {
		lcfg := core.DefaultLinkConfig(1)
		lcfg.Reader.SIC.AnalogTaps = variant.analogTaps
		jobs = append(jobs, job{"analog cancellation stage", variant.name, lcfg})
	}

	// --- Tag preamble length at the range edge (6 m).
	for _, chips := range []int{8, 16, tag.DefaultPreambleChips, tag.ExtendedPreambleChips} {
		lcfg := core.DefaultLinkConfig(6)
		lcfg.Tag.PreambleChips = chips
		jobs = append(jobs, job{"tag preamble length @6 m", fmt.Sprintf("%d µs", chips), lcfg})
	}

	// --- Transmit hardware EVM floor at 0.5 m (short range is
	// distortion-limited, not noise-limited).
	for _, evm := range []float64{-20, -28, math.Inf(-1)} {
		lcfg := core.DefaultLinkConfig(0.5)
		lcfg.Channel = channel.DefaultConfig(0.5)
		lcfg.Channel.TxEVMdB = evm
		lcfg.Tag.Mod = tag.PSK16
		lcfg.Tag.SymbolRateHz = 2.5e6
		name := fmt.Sprintf("%.0f dB EVM", evm)
		if math.IsInf(evm, -1) {
			name = "ideal TX"
		}
		jobs = append(jobs, job{"TX hardware EVM @0.5 m (16PSK)", name, lcfg})
	}

	// --- Modulation family: n-PSK (the paper's choice) vs a
	// [49]-style 16-QAM reflection modulator at the same 4 bits/symbol.
	// Peak-normalized QAM reflects 5/9 of the energy on average and
	// adds amplitude decisions, which is exactly why the paper chose
	// PSK ("the least amount of RF signal degradation", Sec. 5.2).
	for _, variant := range []struct {
		name string
		mod  tag.Modulation
	}{{"16PSK (BackFi)", tag.PSK16}, {"16QAM ([49]-style)", tag.QAM16}} {
		lcfg := core.DefaultLinkConfig(2)
		lcfg.Tag.Mod = variant.mod
		lcfg.Tag.SymbolRateHz = 2e6
		jobs = append(jobs, job{"modulation family @2 m, 4 b/sym", variant.name, lcfg})
	}

	// --- Channel code: compare the delivered-frame rate against what
	// raw symbol slicing alone would give (success requires every raw
	// bit correct) at 4 m.
	lcfgCoded := core.DefaultLinkConfig(4)
	jobs = append(jobs, job{"convolutional code @4 m", "coded (BackFi)", lcfgCoded})

	rows := make([]AblationRow, len(jobs))
	err := parallel.ForEachErr(len(jobs), opt.Workers, func(i int) error {
		row, err := runAblation(jobs[i].study, jobs[i].variant, jobs[i].lcfg, opt)
		if err != nil {
			return err
		}
		rows[i] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Uncoded proxy: P(all raw bits correct) from the measured raw BER
	// over the same frames as the coded row.
	coded := rows[len(rows)-1]
	uncoded := coded
	uncoded.Variant = "uncoded (raw-slice proxy)"
	bits := float64(tag.FrameInfoBits(24))
	uncoded.SuccessRate = math.Pow(1-coded.MeanRawBER, bits)
	rows = append(rows, uncoded)

	return rows, nil
}

// runAblation evaluates one link variant over opt.Trials placements,
// keyed by the study, so every variant of a study sees the same
// placements. Trials fill indexed slots under opt.Workers and reduce in
// trial order, so the row matches the historical sequential
// accumulation.
func runAblation(study, variant string, lcfg core.LinkConfig, opt Options) (*AblationRow, error) {
	type outcome struct {
		err       error
		completed bool // RunPacket succeeded (wake failures count as loss)
		ok        bool
		snr, ber  float64
	}
	outcomes := make([]outcome, opt.Trials)
	parallel.ForEach(opt.Trials, opt.Workers, func(i int) {
		cfg := lcfg
		cfg.Seed = opt.trialSeed("ablation/"+study, 0, i)
		cfg.Obs = opt.Obs
		cfg.Faults = opt.Faults
		link, err := core.NewLink(cfg)
		if err != nil {
			outcomes[i].err = err
			return
		}
		res, err := link.RunPacket(link.RandomPayload(24))
		if err != nil {
			if !errors.Is(err, core.ErrTagNoWake) {
				outcomes[i].err = err // genuine pipeline failure
			}
			return // a sleeping tag at the range edge counts as loss
		}
		outcomes[i] = outcome{completed: true, ok: res.PayloadOK, snr: res.MeasuredSNRdB, ber: res.RawBER()}
	})
	row := &AblationRow{Study: study, Variant: variant}
	ok := 0
	for _, o := range outcomes {
		if o.err != nil {
			return nil, o.err
		}
		if !o.completed {
			continue
		}
		if o.ok {
			ok++
		}
		row.MeanSNRdB += o.snr
		row.MeanRawBER += o.ber
	}
	row.SuccessRate = float64(ok) / float64(opt.Trials)
	row.MeanSNRdB /= float64(opt.Trials)
	row.MeanRawBER /= float64(opt.Trials)
	return row, nil
}

// RenderAblations prints the study table.
func RenderAblations(rows []AblationRow) string {
	header := []string{"Study", "Variant", "Success", "SNR(dB)", "raw BER"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Study, r.Variant,
			fmt.Sprintf("%.2f", r.SuccessRate),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
			fmt.Sprintf("%.2e", r.MeanRawBER),
		})
	}
	return table(header, out)
}
