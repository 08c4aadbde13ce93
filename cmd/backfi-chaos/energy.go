package main

// The -energy soak (DESIGN.md §5k): sweep harvest severities on an
// energy-aware daemon whose sessions ride a mobility ("in the wild")
// fault timeline, and assert the robustness contract for tags that go
// dark — the stream must resume gap-free after every dark episode, the
// baseline severity must clear the delivery floor, the starved
// severity must actually cycle dark→wake, and the whole sweep must
// leak no goroutines. Each cell reports delivery and joules per
// delivered bit (the EPB-model transmit energy the daemon drained from
// the session tanks), so -out records how the energy cost of a
// delivered bit moves as the ambient harvest dries up.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"backfi/internal/benchio"
	"backfi/internal/core"
	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/serve"
)

// energyParams carries the parsed flags into the energy soak.
type energyParams struct {
	severities       []float64
	wildTimeline     string
	sessions, frames int
	payloadBytes     int
	link             core.LinkConfig
	rho              float64
	retries, shards  int
	floor            float64
	goroutinesStart  int
	out, flightOut   string
}

// energyCell is one severity's soak outcome.
type energyCell struct {
	Severity      float64 `json:"severity"`
	Offered       int     `json:"offered_frames"`
	Delivered     int     `json:"delivered_frames"`
	DeliveryRate  float64 `json:"delivery_rate"`
	DarkPolls     int     `json:"dark_polls"`
	DarkPollFrac  float64 `json:"dark_poll_frac"`
	DarkEpisodes  int     `json:"dark_episodes"`
	Wakes         int     `json:"wakes"`
	SeqViolations int     `json:"seq_violations"`
	AirtimeSec    float64 `json:"airtime_sec"`
	JoulesPerBit  float64 `json:"joules_per_delivered_bit"`
	WatchdogTrips int     `json:"watchdog_trips"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// parseSeverities parses the -energy-severities list.
func parseSeverities(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("severity %q: %v", part, err)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("severity %v outside [0,1]", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty severity list")
	}
	return out, nil
}

// energySoak runs the sweep and gates on it.
func energySoak(p energyParams) {
	cells := make([]*energyCell, len(p.severities))
	for i, sev := range p.severities {
		cell, err := energySoakOne(p, sev)
		if err != nil {
			log.Fatalf("severity %.2g: %v", sev, err)
		}
		cells[i] = cell
		log.Printf("severity %.2g: delivery %.3f, %d dark polls (%d episodes, %d wakes), %.3g J/bit",
			sev, cell.DeliveryRate, cell.DarkPolls, cell.DarkEpisodes, cell.Wakes, cell.JoulesPerBit)
	}

	goroutinesEnd := runtime.NumGoroutine()
	for wait := 0; goroutinesEnd > p.goroutinesStart && wait < 100; wait++ {
		time.Sleep(20 * time.Millisecond)
		goroutinesEnd = runtime.NumGoroutine()
	}

	var failures []string
	for _, c := range cells {
		if c.SeqViolations > 0 {
			failures = append(failures, fmt.Sprintf("severity %.2g: %d sequence violations — a dark episode lost or duplicated frames", c.Severity, c.SeqViolations))
		}
		if c.Delivered > 0 && c.JoulesPerBit <= 0 {
			failures = append(failures, fmt.Sprintf("severity %.2g: delivered %d frames with no accounted transmit energy", c.Severity, c.Delivered))
		}
	}
	base := cells[0]
	if p.floor > 0 && base.DeliveryRate < p.floor {
		failures = append(failures, fmt.Sprintf("baseline severity %.2g delivery %.3f below floor %.3f", base.Severity, base.DeliveryRate, p.floor))
	}
	if base.Severity == 0 && base.DarkPolls != 0 {
		failures = append(failures, fmt.Sprintf("severity 0 answered %d dark polls — the gate must be invisible on a plentiful harvest", base.DarkPolls))
	}
	last := cells[len(cells)-1]
	if last.DarkPolls == 0 || last.DarkEpisodes < 1 {
		failures = append(failures, fmt.Sprintf("starved severity %.2g never went dark (%d dark polls, %d episodes) — the sweep did not exercise the energy path", last.Severity, last.DarkPolls, last.DarkEpisodes))
	}
	if last.Wakes < last.DarkEpisodes {
		failures = append(failures, fmt.Sprintf("starved severity %.2g: %d dark episodes but only %d wakes — a tag never recovered", last.Severity, last.DarkEpisodes, last.Wakes))
	}
	if goroutinesEnd > p.goroutinesStart {
		failures = append(failures, fmt.Sprintf("goroutine leak: %d before, %d after shutdown", p.goroutinesStart, goroutinesEnd))
	}

	sum := map[string]any{
		"wild_timeline":      p.wildTimeline,
		"sessions":           p.sessions,
		"frames_per_session": p.frames,
		"retries":            p.retries,
		"rho":                p.rho,
		"floor":              p.floor,
		"severities":         p.severities,
		"cells":              cells,
		"goroutines_start":   p.goroutinesStart,
		"goroutines_end":     goroutinesEnd,
		"pass":               len(failures) == 0,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		log.Fatal(err)
	}
	if p.out != "" {
		if err := benchio.Merge(p.out, "wild", sum); err != nil {
			log.Fatalf("out: %v", err)
		}
		log.Printf("merged wild entry into %s", p.out)
	}
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Printf("pass: %d severities, baseline delivery %.3f, starved delivery %.3f with %d dark→wake cycles",
		len(cells), base.DeliveryRate, last.DeliveryRate, last.Wakes)
}

// coldTank is the soak's tank: the serving default opened 60% charged,
// so a starved harvest drains it inside the soak instead of coasting
// on a full-capacity seed.
func coldTank() energy.TankConfig {
	tank := serve.DefaultEnergyTank()
	tank.InitialJ = 0.6 * tank.CapacityJ
	return tank
}

// energySoakOne boots one energy-aware daemon at the severity and
// drives the closed-loop workload through it, retrying through dark
// episodes. The SIC watchdog stays off here — its isolation from dark
// polls is pinned by the serve-layer tests; this harness gates the
// end-to-end story instead.
func energySoakOne(p energyParams, severity float64) (*energyCell, error) {
	tl, err := fault.ParseWildTimeline(p.wildTimeline)
	if err != nil {
		return nil, fmt.Errorf("wild-timeline: %w", err)
	}
	flight := obs.NewFlightRecorder(0)
	if p.flightOut != "" {
		flight.SetDumpPath(p.flightOut)
	}
	tank := coldTank()
	srv, err := serve.NewServer(serve.Config{
		Addr:           "localhost:0",
		Link:           p.link,
		CoherenceRho:   p.rho,
		MaxRetries:     p.retries,
		Shards:         p.shards,
		Timeline:       tl,
		Energy:         true,
		EnergySeverity: severity,
		EnergyTank:     &tank,
		Obs:            obs.NewRegistry(),
		Flight:         flight,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}

	type sessionOutcome struct {
		delivered, darkPolls, livePolls, seqViolations int
		airtimeSec                                     float64
		err                                            error
	}
	outcomes := make([]sessionOutcome, p.sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < p.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &outcomes[s]
			c, err := serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), IOTimeout: 10 * time.Second})
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			id := fmt.Sprintf("energy-%03d", s)
			for i := 0; i < p.frames; i++ {
				pay := []byte(fmt.Sprintf("%s/%06d/", id, i))
				for len(pay) < p.payloadBytes {
					pay = append(pay, byte(i))
				}
				var resp *serve.Response
				for attempt := 0; ; attempt++ {
					resp, err = c.Decode(id, pay[:p.payloadBytes])
					if errors.Is(err, serve.ErrTagDark) {
						r.darkPolls++
						if attempt < 400 {
							continue
						}
						r.err = fmt.Errorf("frame %d: tag never woke in 400 polls", i)
						return
					}
					break
				}
				if err != nil {
					r.err = fmt.Errorf("frame %d: %w", i, err)
					return
				}
				r.livePolls++
				// Gap-free resume: every live decode advances Seq by
				// exactly one, dark episodes notwithstanding.
				if resp.Seq != r.livePolls {
					r.seqViolations++
				}
				if resp.Delivered {
					r.delivered++
				}
			}
			st, err := c.Stats(id)
			if err != nil {
				r.err = err
				return
			}
			r.airtimeSec = st.AirtimeSec
		}(s)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	cell := &energyCell{
		Severity:      severity,
		Offered:       p.sessions * p.frames,
		DarkEpisodes:  flight.Count(obs.FlightTagDark),
		Wakes:         flight.Count(obs.FlightTagWake),
		WatchdogTrips: flight.Count(obs.FlightWatchdogTrip),
		WallSeconds:   wall,
	}
	for i := range outcomes {
		r := &outcomes[i]
		if r.err != nil {
			return nil, fmt.Errorf("session %d: %w", i, r.err)
		}
		cell.Delivered += r.delivered
		cell.DarkPolls += r.darkPolls
		cell.SeqViolations += r.seqViolations
		cell.AirtimeSec += r.airtimeSec
	}
	cell.DeliveryRate = float64(cell.Delivered) / float64(cell.Offered)
	if total := cell.DarkPolls + cell.Offered; total > 0 {
		cell.DarkPollFrac = float64(cell.DarkPolls) / float64(total)
	}
	if cell.Delivered > 0 {
		txW, err := energy.TxPowerW(p.link.Tag.Mod, p.link.Tag.Coding, p.link.Tag.SymbolRateHz)
		if err != nil {
			return nil, err
		}
		cell.JoulesPerBit = txW * cell.AirtimeSec / float64(cell.Delivered*p.payloadBytes*8)
	}
	if p.flightOut != "" {
		if err := flight.DumpFile(p.flightOut); err != nil {
			return nil, fmt.Errorf("flight-out: %w", err)
		}
	}
	return cell, nil
}
