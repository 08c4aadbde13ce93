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
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"backfi/internal/energy"
	"backfi/internal/fault"
	"backfi/internal/obs"
	"backfi/internal/scenario"
	"backfi/internal/serve"
)

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

// energySoak runs the sweep and gates on it. Each severity boots one
// energy-aware daemon and drives the closed-loop program through it,
// re-polling dark answers (up to 400 per frame). The SIC watchdog
// stays off here — its isolation from dark polls is pinned by the
// serve-layer tests; this harness gates the end-to-end story instead.
func (r *harness) energySoak(sevs []float64, wildTimeline string, floor float64) {
	tl, err := fault.ParseWildTimeline(wildTimeline)
	if err != nil {
		log.Fatalf("wild-timeline: %v", err)
	}
	txW, err := energy.TxPowerW(r.link.Tag.Mod, r.link.Tag.Coding, r.link.Tag.SymbolRateHz)
	if err != nil {
		log.Fatal(err)
	}
	var fails []string
	var flight *obs.FlightRecorder
	cells := make([]*energyCell, len(sevs))
	for i, sev := range sevs {
		flight = obs.NewFlightRecorder(0)
		if r.flightOut != "" {
			flight.SetDumpPath(r.flightOut)
		}
		srv := r.daemon(tl, nil, flight, func(cfg *serve.Config) {
			cfg.Energy = true
			cfg.EnergySeverity = sev
		})
		res, err := scenario.Run(scenario.Config{
			Program:      scenario.Closed("energy", r.sessions, r.frames, 0, 0),
			PayloadBytes: r.payload,
			DarkRetries:  400,
			Dial: func(int) (scenario.Target, error) {
				return serve.DialClient(serve.ClientConfig{Addr: srv.Addr(), IOTimeout: 10 * time.Second})
			},
		})
		if res == nil {
			log.Fatalf("severity %.2g: %v", sev, err)
		}
		prefix := fmt.Sprintf("severity %.2g: ", sev)
		fails = append(fails, violations(res, prefix)...)
		if _, err := r.Drain(); err != nil {
			fails = append(fails, prefix+err.Error())
		}
		t := res.Total()
		if n := t.Failed + t.Rejected; n > 0 {
			fails = append(fails, fmt.Sprintf("%s%d frames failed (an error, or a tag that never woke in 400 polls)", prefix, n))
		}
		c := &energyCell{
			Severity:      sev,
			Offered:       t.Offered,
			Delivered:     t.Delivered,
			DeliveryRate:  scenario.Rate(t.Delivered, t.Offered),
			DarkPolls:     t.DarkPolls,
			DarkPollFrac:  scenario.Rate(t.DarkPolls, t.DarkPolls+t.Offered),
			DarkEpisodes:  flight.Count(obs.FlightTagDark),
			Wakes:         flight.Count(obs.FlightTagWake),
			SeqViolations: res.Count(scenario.SeqGap),
			WatchdogTrips: flight.Count(obs.FlightWatchdogTrip),
			WallSeconds:   res.Wall.Seconds(),
		}
		for _, o := range res.Clients {
			if o.Stats != nil {
				c.AirtimeSec += o.Stats.AirtimeSec
			}
		}
		if c.Delivered > 0 {
			c.JoulesPerBit = txW * c.AirtimeSec / float64(c.Delivered*r.payload*8)
		}
		if c.Delivered > 0 && c.JoulesPerBit <= 0 {
			fails = append(fails, fmt.Sprintf("%sdelivered %d frames with no accounted transmit energy", prefix, c.Delivered))
		}
		cells[i] = c
		log.Printf("severity %.2g: delivery %.3f, %d dark polls (%d episodes, %d wakes), %.3g J/bit",
			sev, c.DeliveryRate, c.DarkPolls, c.DarkEpisodes, c.Wakes, c.JoulesPerBit)
	}

	base := cells[0]
	if floor > 0 && base.DeliveryRate < floor {
		fails = append(fails, fmt.Sprintf("baseline severity %.2g delivery %.3f below floor %.3f", base.Severity, base.DeliveryRate, floor))
	}
	if base.Severity == 0 && base.DarkPolls != 0 {
		fails = append(fails, fmt.Sprintf("severity 0 answered %d dark polls — the gate must be invisible on a plentiful harvest", base.DarkPolls))
	}
	last := cells[len(cells)-1]
	if last.DarkPolls == 0 || last.DarkEpisodes < 1 {
		fails = append(fails, fmt.Sprintf("starved severity %.2g never went dark (%d dark polls, %d episodes) — the sweep did not exercise the energy path", last.Severity, last.DarkPolls, last.DarkEpisodes))
	}
	if last.Wakes < last.DarkEpisodes {
		fails = append(fails, fmt.Sprintf("starved severity %.2g: %d dark episodes but only %d wakes — a tag never recovered", last.Severity, last.DarkEpisodes, last.Wakes))
	}

	sum := map[string]any{
		"wild_timeline":      wildTimeline,
		"sessions":           r.sessions,
		"frames_per_session": r.frames,
		"retries":            r.retries,
		"rho":                r.rho,
		"floor":              floor,
		"severities":         sevs,
		"cells":              cells,
	}
	r.finish("wild", sum, fails, nil, flight,
		fmt.Sprintf("pass: %d severities, baseline delivery %.3f, starved delivery %.3f with %d dark→wake cycles",
			len(cells), base.DeliveryRate, last.DeliveryRate, last.Wakes))
}
