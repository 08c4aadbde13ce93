package fault

import (
	"math"
	"math/rand"

	"backfi/internal/obs"
	"backfi/internal/rng"
)

// injectorMetrics holds the per-kind injection counters, resolved once
// at construction. All fields are nil (no-op) without a registry.
type injectorMetrics struct {
	cfo         *obs.Counter
	sco         *obs.Counter
	phaseNoise  *obs.Counter
	adcClipped  *obs.Counter
	interfBurst *obs.Counter
	truncated   *obs.Counter
	preamble    *obs.Counter
	ackDropped  *obs.Counter
	wakeDropped *obs.Counter
}

func newInjectorMetrics(r *obs.Registry) injectorMetrics {
	if r == nil {
		return injectorMetrics{}
	}
	kind := func(name string) *obs.Counter {
		return r.Counter(obs.MetricFaultsInjected, obs.HelpFaultsInjected, "kind", name)
	}
	return injectorMetrics{
		cfo:         kind("cfo"),
		sco:         kind("sco"),
		phaseNoise:  kind("phase_noise"),
		adcClipped:  kind("adc_clip"),
		interfBurst: kind("interference_burst"),
		truncated:   kind("truncate"),
		preamble:    kind("preamble_corrupt"),
		ackDropped:  kind("ack_drop"),
		wakeDropped: kind("wake_drop"),
	}
}

// Injector applies one profile's impairments to a link's packets. It
// owns a private RNG stream, so the simulator's placement/noise/payload
// draws are identical with and without faults; a (profile, seed) pair
// reproduces exactly. All methods are safe on a nil receiver and are
// then no-ops that return their input unchanged.
//
// An Injector is not safe for concurrent use — like the link that owns
// it, each Monte-Carlo trial builds its own.
type Injector struct {
	p          Profile
	rng        *rand.Rand
	sampleRate float64
	m          injectorMetrics
}

// NewInjector realizes a profile. A nil or all-zero profile returns a
// (nil, nil) injector — the explicit "no faults" value — so callers
// thread the result unconditionally. sampleRate is the baseband rate
// the waveforms are defined at.
func NewInjector(p *Profile, seed int64, sampleRate float64, reg *obs.Registry) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	return &Injector{
		p:          p.withDefaults(),
		rng:        rng.New(seed),
		sampleRate: sampleRate,
		m:          newInjectorMetrics(reg),
	}, nil
}

// Profile returns the realized profile (zero value for a nil injector).
func (in *Injector) Profile() Profile {
	if in == nil {
		return Profile{}
	}
	return in.p
}

// Reseed re-points the injector's private stream at a fresh seed in
// O(1) — a session (DESIGN.md §5j) calls it once per link attempt so
// every fault draw becomes a pure function of (profile, seed) instead of the attempt history, which is what lets a survivor
// node resume a handed-off session byte-identically. No-op on a nil
// injector. The Markov interference state is per-call, so reseeding
// between attempts leaves single-attempt fault statistics unchanged.
func (in *Injector) Reseed(seed int64) {
	if in == nil {
		return
	}
	in.rng.Seed(seed)
}

// ApplyFrontEnd applies carrier frequency offset and sampling clock
// offset to the over-the-air excitation copy x, in place. The reader's
// ideal transmit reference keeps its own clock, so these offsets
// degrade self-interference cancellation and channel estimation the
// way a non-ideal front end does. x is left unchanged when both are
// off.
func (in *Injector) ApplyFrontEnd(x []complex128) {
	if in == nil || (in.p.CFOHz == 0 && in.p.SCOPpm == 0) || len(x) == 0 {
		return
	}
	eps := in.p.SCOPpm * 1e-6
	step := 2 * math.Pi * in.p.CFOHz / in.sampleRate
	last := x[len(x)-1]
	at := func(n int) complex128 {
		v := x[n]
		if eps != 0 {
			// Resample at position n·(1+eps) by linear interpolation.
			pos := float64(n) * (1 + eps)
			i := int(pos)
			if i >= len(x)-1 {
				v = last
			} else {
				frac := complex(pos-float64(i), 0)
				v = x[i]*(1-frac) + x[i+1]*frac
			}
		}
		if step != 0 {
			s, c := math.Sincos(step * float64(n))
			v *= complex(c, s)
		}
		return v
	}
	// Sample n reads input positions ≥ n when the clock runs fast and
	// ≤ n when it runs slow (sample 0 excepted: its weight on x[1] is
	// zero), so walking away from the read side never reads an
	// overwritten sample.
	if eps >= 0 {
		for n := range x {
			x[n] = at(n)
		}
	} else {
		for n := len(x) - 1; n >= 1; n-- {
			x[n] = at(n)
		}
		x[0] = at(0)
	}
	if in.p.CFOHz != 0 {
		in.m.cfo.Inc()
	}
	if eps != 0 {
		in.m.sco.Inc()
	}
}

// ApplyTagPhaseNoise walks a Wiener phase process over the tag's
// per-sample reflection coefficients in place: φ[n] = φ[n−1] + w[n],
// w ~ N(0, 2π·linewidth/fs). The walk advances through silent samples
// too (the oscillator does not pause), but only modulated samples are
// rotated.
func (in *Injector) ApplyTagPhaseNoise(m []complex128) {
	if in == nil || in.p.PhaseNoiseHz <= 0 {
		return
	}
	sigma := math.Sqrt(2 * math.Pi * in.p.PhaseNoiseHz / in.sampleRate)
	phi := 0.0
	for i := range m {
		phi += in.rng.NormFloat64() * sigma
		if m[i] != 0 {
			s, c := math.Sincos(phi)
			m[i] *= complex(c, s)
		}
	}
	in.m.phaseNoise.Inc()
}

// CorruptPreamble inverts each of the tag's preamble chips with the
// profile's per-chip probability, corrupting the reader's training
// sequence. m is the packet-relative modulation sequence, silentEnd the
// index where the preamble begins. Returns the number of chips flipped.
func (in *Injector) CorruptPreamble(m []complex128, silentEnd, chips, chipSamples int) int {
	if in == nil || in.p.PreambleCorruptProb <= 0 {
		return 0
	}
	flipped := 0
	for c := 0; c < chips; c++ {
		if in.rng.Float64() >= in.p.PreambleCorruptProb {
			continue
		}
		start := silentEnd + c*chipSamples
		for k := start; k < start+chipSamples && k < len(m); k++ {
			m[k] = -m[k]
		}
		flipped++
	}
	in.m.preamble.Add(int64(flipped))
	return flipped
}

// AddInterference overlays bursty co-channel interference on the
// received samples in place. The burst process is a two-state Markov
// chain whose mean on-duration is InterfBurstUs and whose stationary
// on-fraction is InterfDuty; burst samples are complex Gaussian at
// InterfPowerDBm. Bursts can land anywhere, including the SIC training
// window. Returns the number of bursts started.
func (in *Injector) AddInterference(y []complex128) int {
	if in == nil || in.p.InterfDuty <= 0 {
		return 0
	}
	burstSamples := in.p.InterfBurstUs * 1e-6 * in.sampleRate
	if burstSamples < 1 {
		burstSamples = 1
	}
	pExit := 1 / burstSamples
	d := in.p.InterfDuty
	pEnter := d / (1 - d) * pExit
	if pEnter > 1 {
		pEnter = 1
	}
	powerW := math.Pow(10, in.p.InterfPowerDBm/10) * 1e-3
	sigma := math.Sqrt(powerW / 2)
	on := in.rng.Float64() < d // stationary start
	bursts := 0
	if on {
		bursts++
	}
	for i := range y {
		if on {
			y[i] += complex(in.rng.NormFloat64()*sigma, in.rng.NormFloat64()*sigma)
			if in.rng.Float64() < pExit {
				on = false
			}
		} else if in.rng.Float64() < pEnter {
			on = true
			bursts++
		}
	}
	in.m.interfBurst.Add(int64(bursts))
	return bursts
}

// ApplyADC runs the received samples through the reader's converter in
// place: I and Q are quantized to 2^bits uniform levels over a full
// scale set ADCClipDB above the packet RMS (an AGC with headroom), and
// samples beyond full scale clip. Returns the number of clipped
// components.
func (in *Injector) ApplyADC(y []complex128) int {
	if in == nil || in.p.ADCBits <= 0 || len(y) == 0 {
		return 0
	}
	var p float64
	for _, v := range y {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	rms := math.Sqrt(p / float64(len(y)) / 2) // per-dimension RMS
	if rms == 0 {
		return 0
	}
	fs := rms * math.Pow(10, in.p.ADCClipDB/20)
	lsb := fs / float64(int(1)<<uint(in.p.ADCBits-1))
	clipped := 0
	q := func(v float64) float64 {
		if v > fs {
			clipped++
			return fs
		}
		if v < -fs {
			clipped++
			return -fs
		}
		return math.Round(v/lsb) * lsb
	}
	for i, v := range y {
		y[i] = complex(q(real(v)), q(imag(v)))
	}
	in.m.adcClipped.Add(int64(clipped))
	return clipped
}

// TruncateTail models a capture cut short: with the profile's per-packet
// probability it zeroes a uniformly drawn tail of the packet region
// [packetStart, packetStart+packetLen). y may hold only a prefix of the
// capture (a windowed receiver computes just the samples it decodes);
// the cut is drawn against the whole packet and zeroed where it
// overlaps y. Returns the number of samples lost (0 when the packet
// survived intact).
func (in *Injector) TruncateTail(y []complex128, packetStart, packetLen int) int {
	if in == nil || in.p.TruncateProb <= 0 {
		return 0
	}
	if in.rng.Float64() >= in.p.TruncateProb {
		return 0
	}
	lost := min(1+int(in.rng.Float64()*in.p.TruncateFrac*float64(packetLen)), packetLen)
	end := packetStart + packetLen
	start := max(end-lost, 0)
	for i := start; i < min(end, len(y)); i++ {
		y[i] = 0
	}
	in.m.truncated.Inc()
	return end - start
}

// DropWake reports whether the tag sleeps through this packet's wake
// preamble. The link translates a dropped wake into core.ErrTagNoWake
// before the tag modulates anything, so the attempt costs excitation
// airtime but zero tag airtime.
func (in *Injector) DropWake() bool {
	if in == nil || in.p.NoWakeProb <= 0 {
		return false
	}
	if in.rng.Float64() >= in.p.NoWakeProb {
		return false
	}
	in.m.wakeDropped.Inc()
	return true
}

// DropACK reports whether this frame's ACK was lost on its way back to
// the tag (the tag will retransmit a frame the reader already has).
func (in *Injector) DropACK() bool {
	if in == nil || in.p.ACKDropProb <= 0 {
		return false
	}
	if in.rng.Float64() >= in.p.ACKDropProb {
		return false
	}
	in.m.ackDropped.Inc()
	return true
}
