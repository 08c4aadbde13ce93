package mac

import (
	"fmt"
	"math"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/rng"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// requiredSNRdB is the approximate post-equalization SNR each 802.11a/g
// rate needs for a low packet error rate.
var requiredSNRdB = map[int]float64{
	6: 5, 9: 6.5, 12: 8, 18: 10.5, 24: 13.5, 36: 17.5, 48: 21.5, 54: 23.5,
}

// RequiredSNRdB returns the decode threshold for a rate.
func RequiredSNRdB(mbps int) (float64, error) {
	v, ok := requiredSNRdB[mbps]
	if !ok {
		return 0, fmt.Errorf("mac: unknown rate %d Mbps", mbps)
	}
	return v, nil
}

// ClientDistanceForRate returns the AP–client distance at which the
// downlink SNR sits margin dB above the rate's threshold, under the
// given indoor exponent and transmit power.
func ClientDistanceForRate(mbps int, txPowerDBm, eta, marginDB float64) (float64, error) {
	thr, err := RequiredSNRdB(mbps)
	if err != nil {
		return 0, err
	}
	noiseDBm := dsp.DBm(channel.ThermalNoiseW(20e6, 6))
	// txPower − PL(d) − noise = thr + margin
	pl := txPowerDBm - noiseDBm - thr - marginDB
	pl1 := channel.FSPLdB(1, channel.DefaultCarrierHz)
	d := math.Pow(10, (pl-pl1)/(10*eta))
	if d < 0.5 {
		d = 0.5
	}
	return d, nil
}

// ImpactConfig describes one WiFi-impact experiment: a normal AP→client
// downlink with a BackFi tag modulating nearby.
type ImpactConfig struct {
	// TagDistanceM is the AP–tag separation (the interference is
	// strongest when the tag is nearly on top of the AP).
	TagDistanceM float64
	// TagClientDistanceM is the tag→client separation.
	TagClientDistanceM float64
	// ClientDistanceM is the AP–client separation.
	ClientDistanceM float64
	// WiFiMbps and PSDUBytes describe the downlink traffic.
	WiFiMbps  int
	PSDUBytes int
	// DownlinkExponent is the indoor path-loss exponent of the normal
	// WiFi links (≈3–4 through walls and furniture).
	DownlinkExponent float64
	// TxPowerDBm is the AP power.
	TxPowerDBm float64
}

// DefaultImpactConfig returns the Fig. 13 worst case: tag at 0.25 m.
func DefaultImpactConfig(mbps int, clientDistanceM float64) ImpactConfig {
	return ImpactConfig{
		TagDistanceM:       0.25,
		TagClientDistanceM: clientDistanceM,
		ClientDistanceM:    clientDistanceM,
		WiFiMbps:           mbps,
		PSDUBytes:          500,
		DownlinkExponent:   3.5,
		TxPowerDBm:         20,
	}
}

// ImpactResult compares the downlink with and without the tag active.
type ImpactResult struct {
	// PEROn / PEROff are the client's packet error rates.
	PEROn, PEROff float64
	// SNROnDB / SNROffDB are mean client post-equalization SNRs.
	SNROnDB, SNROffDB float64
	// ThroughputOnBps / ThroughputOffBps are PHY goodputs
	// rate × (1−PER).
	ThroughputOnBps, ThroughputOffBps float64
}

// SNRDegradationDB returns the SNR cost of the tag.
func (r ImpactResult) SNRDegradationDB() float64 { return r.SNROffDB - r.SNROnDB }

// SimulateClientImpact runs `trials` physical downlink packets through
// the real OFDM PHY, with the tag's backscatter (a 16PSK 2.5 Msym/s
// modulated copy of the same transmission) arriving at the client as
// interference, and the same packets again with the tag silent.
func SimulateClientImpact(cfg ImpactConfig, trials int, seed int64) (ImpactResult, error) {
	rate, err := wifi.RateByMbps(cfg.WiFiMbps)
	if err != nil {
		return ImpactResult{}, err
	}
	if trials <= 0 {
		return ImpactResult{}, fmt.Errorf("mac: trials must be positive")
	}
	r, src := rng.NewWithSource(seed)
	rx := wifi.NewReceiver()

	tcfg := tag.Config{Mod: tag.PSK16, Coding: fec.Rate12, SymbolRateHz: 2.5e6, PreambleChips: 32, ID: 1}
	tg, err := tag.New(tcfg)
	if err != nil {
		return ImpactResult{}, err
	}

	var res ImpactResult
	var snrOnSum, snrOffSum float64
	var okOn, okOff, snrOnN, snrOffN int
	for i := 0; i < trials; i++ {
		psdu := make([]byte, cfg.PSDUBytes)
		r.Read(psdu)
		wave, err := wifi.Transmit(psdu, rate, wifi.DefaultScramblerSeed)
		if err != nil {
			return ImpactResult{}, err
		}
		xp := dsp.Scale(wave, complex(math.Sqrt(dsp.UnDBm(cfg.TxPowerDBm)), 0))

		// Downlink channel and client noise.
		hc, noiseW := channel.Downlink(r, cfg.ClientDistanceM, cfg.DownlinkExponent, channel.DefaultCarrierHz, 4, 6, 20e6)
		noise := channel.NewAWGN(src, noiseW)

		// Tag interference path: AP→tag (backscatter budget) then
		// tag→client (one-way loss).
		bsCfg := channel.DefaultConfig(math.Max(cfg.TagDistanceM, 0.1))
		plAPTag := channel.LogDistancePLdB(math.Max(cfg.TagDistanceM, 0.1), channel.DefaultCarrierHz, bsCfg.PathLossExponent, 1)
		hfGain := -plAPTag + bsCfg.TagGainDB/2
		hf := channel.RicianTaps(r, 3, 12, 0.5).Scale(hfGain)
		plTagClient := channel.LogDistancePLdB(math.Max(cfg.TagClientDistanceM, 0.1), channel.DefaultCarrierHz, cfg.DownlinkExponent, 1)
		htc := channel.RicianTaps(r, 3, 12, 0.5).Scale(-plTagClient + bsCfg.TagGainDB/2)

		capN := tg.PayloadCapacity(len(xp))
		var interference []complex128
		if capN >= 0 {
			payload := make([]byte, capN)
			r.Read(payload)
			m, _, err := tg.ModulationSequence(len(xp), payload)
			if err != nil {
				return ImpactResult{}, err
			}
			interference = htc.Apply(tag.Backscatter(hf.Apply(xp), m))
		} else {
			interference = dsp.Zeros(len(xp))
		}

		direct := hc.Apply(xp)
		rxOff := noise.Add(direct)
		rxOn := noise.Add(dsp.Add(direct, interference))

		if got, info, err := rx.Receive(rxOff); err == nil && bytesEqual(got, psdu) {
			okOff++
			snrOffSum += info.SNRdB
			snrOffN++
		}
		if got, info, err := rx.Receive(rxOn); err == nil && bytesEqual(got, psdu) {
			okOn++
			snrOnSum += info.SNRdB
			snrOnN++
		}
	}
	res.PEROff = 1 - float64(okOff)/float64(trials)
	res.PEROn = 1 - float64(okOn)/float64(trials)
	if snrOffN > 0 {
		res.SNROffDB = snrOffSum / float64(snrOffN)
	}
	if snrOnN > 0 {
		res.SNROnDB = snrOnSum / float64(snrOnN)
	}
	res.ThroughputOffBps = float64(cfg.WiFiMbps) * 1e6 * (1 - res.PEROff)
	res.ThroughputOnBps = float64(cfg.WiFiMbps) * 1e6 * (1 - res.PEROn)
	return res, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
