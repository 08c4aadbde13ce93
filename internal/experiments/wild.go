package experiments

import (
	"context"
	"errors"
	"fmt"

	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/parallel"
	"backfi/internal/serve"
)

// WildRow is one (mobility severity, harvest severity) cell of the
// "in the wild" sweep (DESIGN.md §5k): a tag that moves (Clarke-model
// Doppler fading plus moderate RF impairments, fault.Wild) and lives
// off a scarce ambient harvest (the serving supercap state machine),
// served end to end by an energy-aware reader daemon.
type WildRow struct {
	// MobilitySeverity is the fault.Wild knob in [0,1]; 1 is ~2 m/s
	// (brisk walking) plus Standard(0.5) impairments.
	MobilitySeverity float64
	// HarvestSeverity is the serve.Config.EnergySeverity knob in [0,1];
	// 0 keeps every harvest slot plentiful, 1 makes them all scarce.
	HarvestSeverity float64
	// DeliveryRate is delivered frames over offered frames. A frame is
	// offered once; dark polls are retried and do not count as offers.
	DeliveryRate float64
	// DarkPollFrac is the fraction of all polls (dark probes + live
	// decodes) the daemon answered tag_dark.
	DarkPollFrac float64
	// DarkEpisodes / Wakes count the flight recorder's live→dark
	// transitions and recoveries across the cell's sessions.
	DarkEpisodes int
	Wakes        int
	// JoulesPerDeliveredBit is the tags' total transmit energy (EPB
	// model power × modulation airtime, exactly what the daemon drains
	// from each tank) over the delivered payload bits.
	JoulesPerDeliveredBit float64
}

// Wild runs the sweep: each cell boots an in-process energy-aware
// reader daemon whose sessions carry a partially banked supercap, and
// drives a closed-loop workload that retries through dark episodes.
// The axes stress the two ways a deployed tag goes quiet — fading it
// can't control and energy it doesn't have — and the row reports both
// what survived (delivery) and what it cost (joules per delivered
// bit). Options.Faults is ignored: the sweep owns the impairment axis.
func Wild(opt Options) ([]WildRow, error) {
	opt = opt.withDefaults()
	sp := opt.figureSpan("wild")
	defer sp.End()

	mobilities := []float64{0, 0.5, 1}
	harvests := []float64{0, 0.9, 1}
	const distance = 1.0
	const sessions = 2
	const payloadBytes = 24
	// Enough frames that a severity-1 harvest drains the cold-start
	// bank below the sleep threshold mid-soak (~22 frames at ~1 nJ per
	// frame), so the dark/wake cycle is exercised, not just configured.
	frames := opt.Trials * 8
	if frames < 24 {
		frames = 24
	}

	rows := make([]WildRow, len(mobilities)*len(harvests))
	err := parallel.ForEachErr(len(rows), opt.Workers, func(k int) error {
		mob := mobilities[k/len(harvests)]
		hs := harvests[k%len(harvests)]
		row, err := wildCell(mob, hs, sessions, frames, payloadBytes, distance, opt.trialSeed("wild", k, 0))
		if err != nil {
			return fmt.Errorf("wild cell mob=%.2g harvest=%.2g: %w", mob, hs, err)
		}
		rows[k] = *row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// wildCell serves one grid point. The daemon is real (TCP, shards,
// batches) but the outcome is deterministic in the seed: the serving
// determinism contract makes responses independent of shard count and
// scheduling, and the dark/wake schedule is a pure function of the
// per-session harvest trace.
func wildCell(mob, harvest float64, sessions, frames, payloadBytes int, distance float64, seed int64) (*WildRow, error) {
	link := core.DefaultLinkConfig(distance)
	link.Seed = seed
	if mob > 0 {
		p := fault.Wild(mob)
		link.Faults = &p
	}
	// Cold start: the bank opens 60% charged so a scarce harvest drains
	// it inside the soak instead of coasting on the full-capacity seed.
	tank := serve.DefaultEnergyTank()
	tank.InitialJ = 0.6 * tank.CapacityJ
	flight := obs.NewFlightRecorder(0)
	srv, err := serve.NewServer(serve.Config{
		Addr:           "localhost:0",
		Link:           link,
		CoherenceRho:   0.95,
		MaxRetries:     2,
		Shards:         2,
		Energy:         true,
		EnergySeverity: harvest,
		EnergyTank:     &tank,
		Flight:         flight,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Shutdown(context.Background())

	delivered, darkPolls, livePolls := 0, 0, 0
	var airtimeSec float64
	for s := 0; s < sessions; s++ {
		c, err := serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), Proto: "binary"})
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("wild-%03d", s)
		for i := 0; i < frames; i++ {
			p := []byte(fmt.Sprintf("%s/%06d/", id, i))
			for len(p) < payloadBytes {
				p = append(p, byte(i))
			}
			var resp *serve.Response
			for attempt := 0; ; attempt++ {
				resp, err = c.Decode(id, p[:payloadBytes])
				if errors.Is(err, serve.ErrTagDark) {
					darkPolls++
					if attempt < 400 {
						continue
					}
					return nil, fmt.Errorf("session %s frame %d: tag never woke in 400 polls", id, i)
				}
				break
			}
			if err != nil {
				c.Close()
				return nil, err
			}
			livePolls++
			if resp.Delivered {
				delivered++
			}
		}
		st, err := c.Stats(id)
		c.Close()
		if err != nil {
			return nil, err
		}
		airtimeSec += st.AirtimeSec
	}

	txW, err := energy.TxPowerW(link.Tag.Mod, link.Tag.Coding, link.Tag.SymbolRateHz)
	if err != nil {
		return nil, err
	}
	row := &WildRow{
		MobilitySeverity: mob,
		HarvestSeverity:  harvest,
		DeliveryRate:     float64(delivered) / float64(sessions*frames),
		DarkEpisodes:     flight.Count(obs.FlightTagDark),
		Wakes:            flight.Count(obs.FlightTagWake),
	}
	if total := darkPolls + livePolls; total > 0 {
		row.DarkPollFrac = float64(darkPolls) / float64(total)
	}
	if delivered > 0 {
		row.JoulesPerDeliveredBit = txW * airtimeSec / float64(delivered*payloadBytes*8)
	}
	return row, nil
}

// RenderWild prints the sweep grouped by mobility severity.
func RenderWild(rows []WildRow) string {
	header := []string{"Mobility", "Harvest", "Delivery", "DarkPoll", "Dark", "Wakes", "nJ/bit"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.MobilitySeverity),
			fmt.Sprintf("%.2f", r.HarvestSeverity),
			fmt.Sprintf("%.2f", r.DeliveryRate),
			fmt.Sprintf("%.2f", r.DarkPollFrac),
			fmt.Sprintf("%d", r.DarkEpisodes),
			fmt.Sprintf("%d", r.Wakes),
			fmt.Sprintf("%.3f", r.JoulesPerDeliveredBit*1e9),
		})
	}
	return table(header, out)
}
