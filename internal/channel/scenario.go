package channel

import (
	"fmt"
	"math"
	"math/rand"

	"backfi/internal/dsp"
	"backfi/internal/rng"
)

// Config describes one placement of the BackFi AP, tag, and
// environment. Zero values are replaced by the calibrated defaults of
// DefaultConfig.
type Config struct {
	// DistanceM is the AP–tag separation in meters.
	DistanceM float64
	// CarrierHz is the RF carrier (defaults to WiFi channel 6).
	CarrierHz float64
	// SampleRate is the baseband rate in Hz (defaults to 20 MHz).
	SampleRate float64
	// TxPowerDBm is the AP transmit power.
	TxPowerDBm float64
	// NoiseFigureDB is the AP receiver noise figure.
	NoiseFigureDB float64
	// BandwidthHz sets the thermal noise bandwidth (defaults to the
	// sample rate).
	BandwidthHz float64
	// PathLossExponent is the one-way log-distance exponent of the
	// backscatter link. The default is calibrated to the paper's
	// measured throughput-vs-range points (Sec. 6.1), which imply a
	// shallow effective exponent in their rich-reflection lab.
	PathLossExponent float64
	// TagGainDB aggregates tag antenna gains minus modulator
	// reflection/insertion loss over the round trip.
	TagGainDB float64
	// LeakageDB is the direct TX→RX leakage power gain (circulator
	// isolation), relative to transmit power. Typically −15…−25 dB.
	LeakageDB float64
	// EnvReflectDB is the aggregate power gain of environmental
	// reflections arriving back at the AP receiver.
	EnvReflectDB float64
	// EnvTaps is the FIR length of the environmental reflections.
	EnvTaps int
	// LinkTaps is the FIR length of each of h_f and h_b.
	LinkTaps int
	// DecayPerTap is the exponential power-delay-profile ratio.
	DecayPerTap float64
	// RicianKdB is the K-factor of the tag link's first tap.
	RicianKdB float64
	// TxEVMdB is the transmitter hardware error floor (−inf disables).
	TxEVMdB float64
}

// DefaultConfig returns the calibrated testbed model at the given AP–tag
// distance.
func DefaultConfig(distanceM float64) Config {
	return Config{
		DistanceM:        distanceM,
		CarrierHz:        DefaultCarrierHz,
		SampleRate:       20e6,
		TxPowerDBm:       20,
		NoiseFigureDB:    6,
		BandwidthHz:      20e6,
		PathLossExponent: 1.05,
		TagGainDB:        -13,
		LeakageDB:        -18,
		EnvReflectDB:     -40,
		EnvTaps:          10,
		LinkTaps:         3,
		DecayPerTap:      0.5,
		RicianKdB:        12,
		TxEVMdB:          -28,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig(c.DistanceM)
	if c.CarrierHz == 0 {
		c.CarrierHz = d.CarrierHz
	}
	if c.SampleRate == 0 {
		c.SampleRate = d.SampleRate
	}
	if c.TxPowerDBm == 0 {
		c.TxPowerDBm = d.TxPowerDBm
	}
	if c.NoiseFigureDB == 0 {
		c.NoiseFigureDB = d.NoiseFigureDB
	}
	if c.BandwidthHz == 0 {
		c.BandwidthHz = c.SampleRate
	}
	if c.PathLossExponent == 0 {
		c.PathLossExponent = d.PathLossExponent
	}
	if c.TagGainDB == 0 {
		c.TagGainDB = d.TagGainDB
	}
	if c.LeakageDB == 0 {
		c.LeakageDB = d.LeakageDB
	}
	if c.EnvReflectDB == 0 {
		c.EnvReflectDB = d.EnvReflectDB
	}
	if c.EnvTaps == 0 {
		c.EnvTaps = d.EnvTaps
	}
	if c.LinkTaps == 0 {
		c.LinkTaps = d.LinkTaps
	}
	if c.DecayPerTap == 0 {
		c.DecayPerTap = d.DecayPerTap
	}
	if c.RicianKdB == 0 {
		c.RicianKdB = d.RicianKdB
	}
	if c.TxEVMdB == 0 {
		c.TxEVMdB = d.TxEVMdB
	}
	return c
}

// Validate checks the configuration as NewScenario will see it, i.e.
// after zero fields are filled from DefaultConfig — a zero CarrierHz is
// fine (it means "default"), a negative one is not.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.DistanceM <= 0 {
		return fmt.Errorf("channel: AP–tag distance %v m must be positive", c.DistanceM)
	}
	if c.CarrierHz <= 0 {
		return fmt.Errorf("channel: carrier %v Hz must be positive", c.CarrierHz)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("channel: sample rate %v Hz must be positive", c.SampleRate)
	}
	if c.BandwidthHz <= 0 {
		return fmt.Errorf("channel: noise bandwidth %v Hz must be positive", c.BandwidthHz)
	}
	if c.PathLossExponent <= 0 {
		return fmt.Errorf("channel: path-loss exponent %v must be positive", c.PathLossExponent)
	}
	if c.EnvTaps < 1 {
		return fmt.Errorf("channel: EnvTaps %d must be at least 1", c.EnvTaps)
	}
	if c.LinkTaps < 1 {
		return fmt.Errorf("channel: LinkTaps %d must be at least 1", c.LinkTaps)
	}
	if c.DecayPerTap <= 0 || c.DecayPerTap > 1 {
		return fmt.Errorf("channel: DecayPerTap %v outside (0,1]", c.DecayPerTap)
	}
	return nil
}

// Scenario is one realized placement: the three channels of the
// paper's Eq. 1 plus noise and transmit-hardware distortion sources.
type Scenario struct {
	Cfg Config
	// HEnv is the self-interference channel (leakage + environment).
	HEnv Taps
	// HF and HB are the forward (AP→tag) and backward (tag→AP)
	// channels.
	HF, HB Taps
	// Noise is the AP receiver's thermal noise source.
	Noise AWGN
	// Distortion is the AP transmitter's hardware error source.
	Distortion TxDistortion
}

// NewScenario draws one random placement realization from r; the
// scenario's noise and distortion sources draw from src. A link passes
// r's own Source (rng.NewWithSource), so one reseed pins both. The
// configuration is rejected with an error (never a panic) if Validate
// fails.
func NewScenario(cfg Config, r *rand.Rand, src *rng.Source) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	// Self-interference: a dominant leakage tap at zero delay plus
	// Rayleigh environmental reflections spread over EnvTaps.
	leak := make(Taps, 1)
	leak[0] = dsp.Phasor(r.Float64()*2*math.Pi) * complex(math.Sqrt(dsp.UnDB(cfg.LeakageDB)), 0)
	env := RayleighTaps(r, cfg.EnvTaps, cfg.DecayPerTap).Scale(cfg.EnvReflectDB).DelayTaps(1)
	henv := make(Taps, len(env))
	copy(henv, env)
	henv[0] += leak[0]

	// One-way tag link gain: path loss at the configured exponent plus
	// half the tag gain budget on each leg.
	pl := LogDistancePLdB(cfg.DistanceM, cfg.CarrierHz, cfg.PathLossExponent, 1)
	oneway := -pl + cfg.TagGainDB/2
	delay := int(math.Round(PropagationDelaySamples(cfg.DistanceM, cfg.SampleRate)))
	hf := RicianTaps(r, cfg.LinkTaps, cfg.RicianKdB, cfg.DecayPerTap).Scale(oneway).DelayTaps(delay)
	hb := RicianTaps(r, cfg.LinkTaps, cfg.RicianKdB, cfg.DecayPerTap).Scale(oneway).DelayTaps(delay)

	// A placement lives as long as its session, so its three channels
	// share one backing array instead of three small allocations left
	// scattered among the draws' temporaries.
	taps := make(Taps, 0, len(henv)+len(hf)+len(hb))
	taps = append(append(append(taps, henv...), hf...), hb...)
	nf := len(henv) + len(hf)

	noiseW := ThermalNoiseW(cfg.BandwidthHz, cfg.NoiseFigureDB)
	return &Scenario{
		Cfg:        cfg,
		HEnv:       taps[:len(henv):len(henv)],
		HF:         taps[len(henv):nf:nf],
		HB:         taps[nf:],
		Noise:      *NewAWGN(src, noiseW),
		Distortion: *NewTxDistortion(src, cfg.TxEVMdB),
	}, nil
}

// TxPowerW returns the configured transmit power in watts.
func (s *Scenario) TxPowerW() float64 { return dsp.UnDBm(s.Cfg.TxPowerDBm) }

// BackscatterRxPowerW returns the oracle (VNA-style) backscatter signal
// power at the AP receiver for a unit-modulation tag.
func (s *Scenario) BackscatterRxPowerW() float64 {
	return s.TxPowerW() * s.HF.Gain() * s.HB.Gain()
}

// ExpectedSNRdB returns the oracle backscatter SNR against thermal
// noise only — the "expected SNR" axis of the paper's Fig. 11a.
func (s *Scenario) ExpectedSNRdB() float64 {
	return dsp.SNRdB(s.BackscatterRxPowerW(), s.Noise.PowerW())
}

// SelfInterferencePowerW returns the self-interference power at the AP
// receiver before cancellation.
func (s *Scenario) SelfInterferencePowerW() float64 {
	return s.TxPowerW() * s.HEnv.Gain()
}

// Downlink draws a one-way WiFi channel (AP→client) at the given
// distance with indoor exponent eta, returning the taps and the client
// noise power. Used by the WiFi-impact experiments (Figs. 12b/13).
func Downlink(r *rand.Rand, distanceM, eta, carrierHz float64, ntaps int, noiseFigureDB, bandwidthHz float64) (Taps, float64) {
	pl := LogDistancePLdB(distanceM, carrierHz, eta, 1)
	taps := RicianTaps(r, ntaps, 6, 0.5).Scale(-pl)
	return taps, ThermalNoiseW(bandwidthHz, noiseFigureDB)
}
