package experiments

import (
	"errors"
	"fmt"

	"backfi/internal/ble"
	"backfi/internal/core"
	"backfi/internal/dsp"
	"backfi/internal/dsss"
	"backfi/internal/parallel"
	"backfi/internal/rng"
	"backfi/internal/tag"
	"backfi/internal/zigbee"
)

// ExcitationRow compares one ambient-signal family as the BackFi
// excitation (the paper's Sec. 1 generality claim, quantified).
type ExcitationRow struct {
	// Excitation names the signal family.
	Excitation string
	// BandOccupancy is the fraction of the 20 MHz band holding 99% of
	// the excitation power (frequency diversity available to the
	// channel estimator).
	BandOccupancy float64
	// SuccessRate / MeanSNRdB / MeanRawBER summarize the backscatter
	// link at the test point.
	SuccessRate float64
	MeanSNRdB   float64
	MeanRawBER  float64
}

// ExcitationComparison runs the same tag configuration (QPSK 1/2 at
// 500 ksym/s, 2 m) over five excitations: the WiFi OFDM packets the
// paper uses, 802.11b DSSS, 802.15.4 O-QPSK, BLE GFSK, and an ideal
// white pseudo-random waveform. Wideband excitations give the combined
// channel estimator more frequency diversity; all of them decode,
// which is the generality claim.
func ExcitationComparison(opt Options) ([]ExcitationRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("excitation")
	defer sp.End()
	const distance = 2.0
	const payloadBytes = 24

	kinds := []string{"wifi", "11b", "zigbee", "ble", "white"}
	rows := make([]ExcitationRow, len(kinds))
	err := parallel.ForEachErr(len(kinds), opt.Workers, func(ki int) error {
		kind := kinds[ki]
		row := ExcitationRow{Excitation: kind}
		var occSet bool
		ok := 0
		for trial := 0; trial < opt.Trials; trial++ {
			cfg := core.DefaultLinkConfig(distance)
			cfg.Tag.SymbolRateHz = 500e3
			// Point 0 keys the placement and point 1 the ambient
			// waveform, both shared by every excitation kind.
			cfg.Seed = opt.trialSeed("excitation", 0, trial)
			cfg.Obs = opt.Obs
			cfg.Faults = opt.Faults
			link, err := core.NewLink(cfg)
			if err != nil {
				return err
			}
			payload := link.RandomPayload(payloadBytes)
			var res *core.PacketResult
			if kind == "wifi" {
				res, err = link.RunPacket(payload)
			} else {
				var exc []complex128
				exc, err = AmbientExcitation(kind, cfg.Tag, payloadBytes, opt.trialSeed("excitation", 1, trial))
				if err != nil {
					return err
				}
				if !occSet {
					psd := dsp.WelchPSD(exc[:min(len(exc), 8192)], 128)
					row.BandOccupancy = dsp.OccupiedBandwidth(psd, 0.99)
					occSet = true
				}
				res, err = link.RunCustomExcitation(exc, payload)
			}
			if err != nil {
				if !errors.Is(err, core.ErrTagNoWake) {
					return err
				}
				continue // no wake counts as loss
			}
			if kind == "wifi" && !occSet {
				row.BandOccupancy = 0.84 // 52 of 64 subcarriers
				occSet = true
			}
			if res.PayloadOK {
				ok++
			}
			row.MeanSNRdB += res.MeasuredSNRdB
			row.MeanRawBER += res.RawBER()
		}
		row.SuccessRate = float64(ok) / float64(opt.Trials)
		row.MeanSNRdB /= float64(opt.Trials)
		row.MeanRawBER /= float64(opt.Trials)
		rows[ki] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AmbientExcitation builds a non-WiFi ambient excitation long enough to
// carry a payloadBytes frame under tcfg, plus 2,000 samples of slack:
// back-to-back packets with random payloads of 802.11b DSSS at 2 Mbps
// ("11b"), 802.15.4 O-QPSK ("zigbee") or BLE GFSK ("ble"), or a
// unit-power white Gaussian waveform ("white"). seed keys the payload
// bytes and the white samples. The WiFi excitation is the link's own
// template (Link.RunPacket), so "wifi" is not a kind here.
func AmbientExcitation(kind string, tcfg tag.Config, payloadBytes int, seed int64) ([]complex128, error) {
	need := tag.SilentSamples + tcfg.PreambleSamples() +
		tag.SymbolsForPayload(payloadBytes, tcfg.Coding, tcfg.Mod)*tcfg.SamplesPerSymbol() + 2000
	r := rng.New(seed)
	var psduBytes int
	var transmit func([]byte) ([]complex128, error)
	switch kind {
	case "white":
		out := make([]complex128, need)
		for i := range out {
			out[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		return dsp.NormalizePower(out, 1), nil
	case "11b":
		psduBytes = 500
		transmit = func(psdu []byte) ([]complex128, error) { return dsss.Transmit(psdu, dsss.DQPSK2M) }
	case "zigbee":
		psduBytes, transmit = 100, zigbee.Transmit
	case "ble":
		psduBytes, transmit = 200, ble.Transmit
	default:
		return nil, fmt.Errorf("experiments: unknown ambient excitation %q", kind)
	}
	var out []complex128
	for len(out) < need {
		psdu := make([]byte, psduBytes)
		r.Read(psdu)
		w, err := transmit(psdu)
		if err != nil {
			return nil, err
		}
		out = append(out, w...)
	}
	return out, nil
}

// RenderExcitation prints the comparison.
func RenderExcitation(rows []ExcitationRow) string {
	header := []string{"Excitation", "Band occ.", "Success", "SNR(dB)", "raw BER"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Excitation,
			fmt.Sprintf("%.0f%%", r.BandOccupancy*100),
			fmt.Sprintf("%.2f", r.SuccessRate),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
			fmt.Sprintf("%.2e", r.MeanRawBER),
		})
	}
	return table(header, out)
}
