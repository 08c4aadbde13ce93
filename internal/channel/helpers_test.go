package channel

import (
	"math/rand"

	"backfi/internal/rng"
)

// Test helpers: constructors return errors since the panic-free API
// refactor; tests built on known-valid configs unwrap them here.

func mustScenario(cfg Config, r *rand.Rand) *Scenario {
	s, err := NewScenario(cfg, r, new(rng.Source))
	if err != nil {
		panic(err)
	}
	return s
}

func mustEvolver(r *rand.Rand, rho float64, s *Scenario) *Evolver {
	e, err := NewEvolver(r, rho, s)
	if err != nil {
		panic(err)
	}
	return e
}
