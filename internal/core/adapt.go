package core

import (
	"errors"
	"fmt"
	"sort"

	"backfi/internal/channel"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/fec"
	"backfi/internal/parallel"
	"backfi/internal/reader"
	"backfi/internal/rng"
	"backfi/internal/tag"
)

// StandardSymbolRates are the tag switching rates of paper Fig. 7.
var StandardSymbolRates = []float64{10e3, 100e3, 500e3, 1e6, 2e6, 2.5e6}

// StandardConfigs enumerates the paper's 36 tag configurations
// ({BPSK,QPSK,16PSK} × {1/2,2/3} × six symbol rates).
func StandardConfigs(preambleChips, id int) []tag.Config {
	var out []tag.Config
	for _, rs := range StandardSymbolRates {
		for _, mod := range tag.Modulations {
			for _, coding := range []fec.CodeRate{fec.Rate12, fec.Rate23} {
				out = append(out, tag.Config{
					Mod:           mod,
					Coding:        coding,
					SymbolRateHz:  rs,
					PreambleChips: preambleChips,
					ID:            id,
				})
			}
		}
	}
	return out
}

// Feasibility summarizes Monte-Carlo packet trials of one configuration
// at one distance.
type Feasibility struct {
	Cfg tag.Config
	// SuccessRate is the fraction of trials whose frame decoded
	// correctly.
	SuccessRate float64
	// WakeRate is the fraction of trials in which the tag woke (the
	// remainder contribute zero throughput and no SNR/BER samples).
	WakeRate float64
	// MeanSNRdB averages the measured post-MRC symbol SNR over the
	// trials that decoded (the tag woke); 0 when none did.
	MeanSNRdB float64
	// MeanRawBER averages the pre-FEC bit error rate over the trials
	// that decoded; 0 when none did.
	MeanRawBER float64
	// ThroughputBps is the configuration's information bit rate.
	ThroughputBps float64
	// REPB is the configuration's relative energy per bit.
	REPB float64
}

// Decodable applies the paper's operating criterion: the link is usable
// if the overwhelming majority of frames decode.
func (f Feasibility) Decodable() bool { return f.SuccessRate >= 0.9 }

// trialOutcome is one Monte-Carlo trial's contribution, stored in a
// per-index slot so the reduction below runs in trial order and the
// summary is bit-identical for every worker count.
type trialOutcome struct {
	err     error
	decoded bool // RunPacket succeeded (the tag woke)
	ok      bool
	snr     float64
	ber     float64
}

// Evaluate runs `trials` independent placements/packets of one tag
// configuration, with faults injected into every trial link (nil = the
// clean evaluation), and summarizes the outcome. workers=0 uses every
// CPU and workers=1 evaluates sequentially. Trial i's link seed is
// rng.Mix(seed, i); each trial builds an independent Link and writes
// into its own slot, so the returned Feasibility does not depend on
// workers.
// Trials where the tag fails to wake (ErrTagNoWake) count as zero
// throughput; any other RunPacket error is a genuine pipeline failure
// and is returned.
//
// Summary statistics follow the sampling structure: SuccessRate and
// WakeRate are per-trial fractions, while MeanSNRdB/MeanRawBER average
// only over the trials that decoded — a placement where half the tags
// sleep must not bias the decoded population's SNR toward zero.
//
// Instrumentation rides on rdrCfg.Obs: the registry set there is also
// installed as each trial link's LinkConfig.Obs, so packet counters and
// stage spans cover sweeps without widening this signature.
func Evaluate(chanCfg channel.Config, tcfg tag.Config, rdrCfg reader.Config, faults *fault.Profile, trials, payloadBytes int, seed int64, workers int) (Feasibility, error) {
	if trials <= 0 {
		return Feasibility{}, fmt.Errorf("core: trials must be positive")
	}
	// Validate before touching tcfg.BitRate()/REPB: unknown modulations
	// or code rates must surface as errors, not panics.
	if err := tcfg.Validate(); err != nil {
		return Feasibility{}, err
	}
	if err := faults.Validate(); err != nil {
		return Feasibility{}, err
	}
	f := Feasibility{Cfg: tcfg, ThroughputBps: tcfg.BitRate()}
	if repb, err := energy.ConfigREPB(tcfg); err == nil {
		f.REPB = repb
	}
	outcomes := make([]trialOutcome, trials)
	parallel.ForEach(trials, workers, func(i int) {
		lc := LinkConfig{
			Channel:       chanCfg,
			Tag:           tcfg,
			Reader:        rdrCfg,
			WiFiMbps:      24,
			WiFiPSDUBytes: 1500,
			Seed:          rng.Mix(seed, i),
			Faults:        faults,
			Obs:           rdrCfg.Obs,
		}
		link, err := NewLink(lc)
		if err != nil {
			outcomes[i].err = err
			return
		}
		res, err := link.RunPacket(link.RandomPayload(payloadBytes))
		if err != nil {
			if errors.Is(err, ErrTagNoWake) {
				// Out of detector range: zero throughput at this
				// placement, not a failure of the pipeline.
				return
			}
			outcomes[i].err = err
			return
		}
		outcomes[i] = trialOutcome{decoded: true, ok: res.PayloadOK, snr: res.MeasuredSNRdB, ber: res.RawBER()}
	})
	var snrSum, berSum float64
	success, decoded := 0, 0
	for _, o := range outcomes {
		if o.err != nil {
			return Feasibility{}, o.err
		}
		if !o.decoded {
			continue
		}
		decoded++
		if o.ok {
			success++
		}
		snrSum += o.snr
		berSum += o.ber
	}
	f.SuccessRate = float64(success) / float64(trials)
	f.WakeRate = float64(decoded) / float64(trials)
	if decoded > 0 {
		f.MeanSNRdB = snrSum / float64(decoded)
		f.MeanRawBER = berSum / float64(decoded)
	}
	return f, nil
}

// Sweep evaluates every configuration in cfgs at one distance,
// configuration i under seed rng.Mix(seed, i); workers bounds the
// per-configuration and per-trial levels together, as in Evaluate.
func Sweep(chanCfg channel.Config, cfgs []tag.Config, rdrCfg reader.Config, trials, payloadBytes int, seed int64, workers int) ([]Feasibility, error) {
	out := make([]Feasibility, len(cfgs))
	err := parallel.ForEachErr(len(cfgs), workers, func(i int) error {
		f, err := Evaluate(chanCfg, cfgs[i], rdrCfg, nil, trials, payloadBytes, rng.Mix(seed, i), workers)
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

// BestThroughput returns the decodable configuration with the highest
// bit rate (ties broken by lower REPB), or ok=false if nothing decodes.
func BestThroughput(results []Feasibility) (Feasibility, bool) {
	var best Feasibility
	found := false
	for _, f := range results {
		if !f.Decodable() {
			continue
		}
		if !found || f.ThroughputBps > best.ThroughputBps ||
			(f.ThroughputBps == best.ThroughputBps && f.REPB < best.REPB) {
			best = f
			found = true
		}
	}
	return best, found
}

// MinREPBAtThroughput returns the decodable configuration with the
// lowest REPB among those achieving at least the target bit rate —
// the paper's rate-adaptation policy ("the most precious resource here
// is energy", Sec. 6.1).
func MinREPBAtThroughput(results []Feasibility, minBps float64) (Feasibility, bool) {
	var best Feasibility
	found := false
	for _, f := range results {
		if !f.Decodable() || f.ThroughputBps < minBps {
			continue
		}
		if !found || f.REPB < best.REPB {
			best = f
			found = true
		}
	}
	return best, found
}

// ParetoREPB returns, for each distinct achieved throughput among
// decodable configs, the minimum REPB — the per-range curves of paper
// Fig. 9.
func ParetoREPB(results []Feasibility) []Feasibility {
	byTput := map[float64]Feasibility{}
	for _, f := range results {
		if !f.Decodable() {
			continue
		}
		if cur, ok := byTput[f.ThroughputBps]; !ok || f.REPB < cur.REPB {
			byTput[f.ThroughputBps] = f
		}
	}
	out := make([]Feasibility, 0, len(byTput))
	for _, f := range byTput {
		out = append(out, f)
	}
	sortByThroughput(out)
	return out
}

// sortByThroughput orders ascending by throughput with a fully
// deterministic tie-break (REPB, then the config's name), so Pareto
// output never depends on map iteration order.
func sortByThroughput(fs []Feasibility) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].ThroughputBps != fs[j].ThroughputBps {
			return fs[i].ThroughputBps < fs[j].ThroughputBps
		}
		if fs[i].REPB != fs[j].REPB {
			return fs[i].REPB < fs[j].REPB
		}
		return fs[i].Cfg.String() < fs[j].Cfg.String()
	})
}
