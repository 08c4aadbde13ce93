package core

import (
	"fmt"

	"backfi/internal/channel"
)

// NewMIMOLink draws a placement whose AP has nrx receive antennas
// (paper Sec. 7: "multiple antennas at the AP provides additional
// diversity combining gain"). The AP transmits from one antenna and
// every antenna receives. Chain 0 is NewLink's placement; every further
// chain draws its own self-interference and backward channel from a
// fresh placement at the same range, and all chains draw independent
// thermal noise — the independence across antennas is what provides
// spatial diversity. The link runs the same exchange as a
// single-antenna one: each chain cancels self-interference against the
// shared transmission (one silent period serves every chain, since only
// one antenna transmits), and the per-symbol MRC combines across
// antennas as well as samples. With nrx = 1 it is NewLink.
func NewMIMOLink(cfg LinkConfig, nrx int) (*Link, error) {
	if nrx < 1 {
		return nil, fmt.Errorf("core: need at least one receive antenna")
	}
	l, err := NewLink(cfg)
	if err != nil {
		return nil, err
	}
	l.rx = make([]rxChain, nrx-1)
	for i := range l.rx {
		sc, err := channel.NewScenario(l.Scenario.Cfg, l.rng, l.src)
		if err != nil {
			return nil, err
		}
		l.rx[i] = rxChain{HEnv: sc.HEnv, HB: sc.HB}
	}
	return l, nil
}
