package channel

import (
	"fmt"
	"math/rand"
)

// MIMOScenario extends Scenario with multiple AP receive antennas
// (the paper's Sec. 7 extension). The AP transmits from one antenna;
// every antenna receives. Each receive chain sees its own
// self-interference channel (its own leakage/reflection geometry), its
// own backward channel from the tag, and independent thermal noise —
// the independence across antennas is what provides spatial diversity.
type MIMOScenario struct {
	Cfg Config
	// HF is the single forward channel (TX antenna → tag).
	HF Taps
	// HEnv[i] and HB[i] are antenna i's self-interference and backward
	// channels.
	HEnv, HB []Taps
	// Noise is shared; calls draw independent samples per antenna.
	Noise *AWGN
	// Distortion is the (single) transmitter's hardware error source.
	Distortion *TxDistortion
}

// NewMIMOScenario draws one placement with nrx receive antennas. Bad
// configuration (including nrx < 1) is reported as an error.
func NewMIMOScenario(cfg Config, nrx int, r *rand.Rand) (*MIMOScenario, error) {
	if nrx < 1 {
		return nil, fmt.Errorf("channel: need at least one receive antenna, got %d", nrx)
	}
	base, err := NewScenario(cfg, r)
	if err != nil {
		return nil, err
	}
	m := &MIMOScenario{
		Cfg:        base.Cfg,
		HF:         base.HF,
		HEnv:       []Taps{base.HEnv},
		HB:         []Taps{base.HB},
		Noise:      &base.Noise,
		Distortion: &base.Distortion,
	}
	cfgFull := base.Cfg
	for i := 1; i < nrx; i++ {
		extra, err := NewScenario(cfgFull, r)
		if err != nil {
			return nil, err
		}
		m.HEnv = append(m.HEnv, extra.HEnv)
		m.HB = append(m.HB, extra.HB)
	}
	return m, nil
}

// NumRx returns the receive antenna count.
func (m *MIMOScenario) NumRx() int { return len(m.HB) }
