package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"backfi/internal/serve"
)

// Harness boots the in-process daemons a run drives and drains them,
// holding the leak invariant: once drained, the process runs no more
// goroutines than when the harness was made.
type Harness struct {
	Start   int
	daemons []*serve.Server
}

// NewHarness records the goroutine baseline.
func NewHarness() *Harness { return &Harness{Start: runtime.NumGoroutine()} }

// Boot starts one daemon, on an ephemeral loopback port unless cfg.Addr
// says otherwise. An energy-gated daemon without its own tank template
// opens every tank 60% charged, so a starved harvest drains it within
// a short run instead of coasting on a full tank.
func (h *Harness) Boot(cfg serve.Config) (*serve.Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "localhost:0"
	}
	if cfg.Energy && cfg.EnergyTank == nil {
		tank := serve.DefaultEnergyTank()
		tank.InitialJ = 0.6 * tank.CapacityJ
		cfg.EnergyTank = &tank
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	h.daemons = append(h.daemons, srv)
	return srv, nil
}

// Drain shuts down every daemon booted since the last Drain (a killed
// one is already down), then waits up to 2 s for the goroutine count
// to fall back to Start. It returns the final count; a leak is a
// *Violation in the error, next to any drain failure.
func (h *Harness) Drain() (int, error) {
	var errs []error
	for _, srv := range h.daemons {
		if err := srv.Shutdown(context.Background()); err != nil {
			errs = append(errs, fmt.Errorf("drain %s: %w", srv.Addr(), err))
		}
	}
	h.daemons = nil
	// Connection handlers unwind asynchronously after Shutdown returns.
	end := runtime.NumGoroutine()
	for wait := 0; end > h.Start && wait < 100; wait++ {
		time.Sleep(20 * time.Millisecond)
		end = runtime.NumGoroutine()
	}
	if end > h.Start {
		errs = append(errs, &Violation{Invariant: Leak,
			Detail: fmt.Sprintf("%d goroutines before the run, %d after drain", h.Start, end)})
	}
	return end, errors.Join(errs...)
}
