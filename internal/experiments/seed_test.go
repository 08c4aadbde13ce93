package experiments

import (
	"math"
	"testing"

	"backfi/internal/core"
	"backfi/internal/fec"
)

// Every (seed, figure, point, trial) key of a grid draws its own seed.
func TestTrialSeedsDistinct(t *testing.T) {
	figs := []string{"8", "9", "10", "11a", "11b", "12a", "12aDCF", "12b", "13",
		"headline", "excitation", "mimo", "robustness", "wild", "ablation/convolutional code @4 m"}
	seen := map[int64][4]int{}
	for seed := int64(1); seed <= 8; seed++ {
		opt := Options{Seed: seed}
		for fi, fig := range figs {
			for point := 0; point < 12; point++ {
				for trial := 0; trial < 30; trial++ {
					s := opt.trialSeed(fig, point, trial)
					key := [4]int{int(seed), fi, point, trial}
					if prev, ok := seen[s]; ok {
						t.Fatalf("keys %v and %v share seed %#x", prev, key, s)
					}
					seen[s] = key
				}
			}
		}
	}
}

// Consecutive seeds draw independent links: no fig11a link at -seed 1
// reappears at -seed 2. The measured SNR stands for the link, since it
// depends on every draw (placement, distortion, noise).
func TestConsecutiveSeedsIndependent(t *testing.T) {
	snrs := map[uint64]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		res, err := Fig11a(3, 3, Options{Trials: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Points {
			bits := math.Float64bits(p.MeasuredSNRdB)
			if snrs[bits] {
				t.Fatalf("seed %d: location %d repeats a measured SNR of %.4f dB", seed, p.Location, p.MeasuredSNRdB)
			}
			snrs[bits] = true
		}
	}
}

// fig11b's (modulation, rate) points share their placements: each
// trial's link is keyed by the trial alone, so every point's mean SNR
// is that of the point's tag configuration on the trial-keyed links.
func TestFig11bPointsSharePlacements(t *testing.T) {
	opt := Options{Trials: 2, Seed: 4}
	rows, err := Fig11b(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var snr float64
		for trial := 0; trial < opt.Trials; trial++ {
			cfg := core.DefaultLinkConfig(4)
			cfg.Tag.Mod, cfg.Tag.Coding, cfg.Tag.SymbolRateHz = r.Mod, fec.Rate12, r.SymbolRateHz
			cfg.Seed = opt.trialSeed("11b", 0, trial)
			link, err := core.NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := 48
			if r.SymbolRateHz < 500e3 {
				n = 8
			}
			pr, err := link.RunPacket(link.RandomPayload(n))
			if err != nil {
				t.Fatal(err)
			}
			snr += pr.MeasuredSNRdB
		}
		if want := snr / float64(opt.Trials); r.MeanSNRdB != want {
			t.Fatalf("%v @ %.0f Hz: mean SNR %v, want %v from the trial-keyed placements", r.Mod, r.SymbolRateHz, r.MeanSNRdB, want)
		}
	}
}
