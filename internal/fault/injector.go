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
	src        *rng.Source // rng's Source: the block Gaussian draws
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
	in := &Injector{
		p:          p.withDefaults(),
		sampleRate: sampleRate,
		m:          newInjectorMetrics(reg),
	}
	in.rng, in.src = rng.NewWithSource(seed)
	return in, nil
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
	sw, cw := math.Sincos(step)
	w := complex(cw, sw)
	last := x[len(x)-1]
	at := func(n int) complex128 {
		if eps == 0 {
			return x[n]
		}
		// Resample at position n·(1+eps) by linear interpolation.
		pos := float64(n) * (1 + eps)
		i := int(pos)
		if i >= len(x)-1 {
			return last
		}
		// Real weights: the same values as complex ones with zero
		// imaginary parts, at half the multiplies.
		f := pos - float64(i)
		a, b := x[i], x[i+1]
		return complex(real(a)*(1-f)+real(b)*f, imag(a)*(1-f)+imag(b)*f)
	}
	// Sample n reads input positions ≥ n when the clock runs fast and
	// ≤ n when it runs slow (sample 0 excepted: its weight on x[1] is
	// zero), so walking away from the read side never reads an
	// overwritten sample: blocks and the samples within them run
	// forward for eps ≥ 0 and backward otherwise. A block's phasors
	// depend only on its position, never on the walk direction.
	var ph [phasorBlock]complex128
	nb := (len(x) + phasorBlock - 1) / phasorBlock
	for b := range nb {
		if eps < 0 {
			b = nb - 1 - b
		}
		lo := b * phasorBlock
		hi := min(lo+phasorBlock, len(x))
		phasors(ph[:hi-lo], step, w, lo)
		if eps >= 0 {
			for n := lo; n < hi; n++ {
				x[n] = at(n) * ph[n-lo]
			}
		} else {
			for n := hi - 1; n >= lo; n-- {
				x[n] = at(n) * ph[n-lo]
			}
		}
	}
	if in.p.CFOHz != 0 {
		in.m.cfo.Inc()
	}
	if eps != 0 {
		in.m.sco.Inc()
	}
}

// phasorBlock is how many CFO phasors one Sincos anchors.
const phasorBlock = 256

// phasors fills ph with the CFO rotation e^{j·step·n} for n = n0,
// n0+1, …: one Sincos anchors ph[0], and each later phasor is the one
// before times w = e^{j·step}. Each product adds about an ulp of error
// in magnitude and phase, so a block of phasorBlock stays within
// ~1e-13 of Sincos (TestFrontEndRecurrenceAccuracy bounds it at 1e-12).
// At step 0 every phasor is exactly 1.
func phasors(ph []complex128, step float64, w complex128, n0 int) {
	s, c := math.Sincos(step * float64(n0))
	p := complex(c, s)
	for k := range ph {
		ph[k] = p
		p *= w
	}
}

// ApplyTagPhaseNoise walks a Wiener phase process over the tag's
// per-sample reflection coefficients in place: φ[n] = φ[n−1] + w[n],
// w ~ N(0, 2π·linewidth/fs). The walk advances through silent samples
// too (the oscillator does not pause), but only modulated samples are
// rotated. The rotation e^{jφ[n]} is kept as a running product of the
// increments' rotations e^{jw[n]}, renormalised to unit magnitude once
// per rng.Block, so |e^{jφ}| stays within ~1e-13 of 1.
func (in *Injector) ApplyTagPhaseNoise(m []complex128) {
	if in == nil || in.p.PhaseNoiseHz <= 0 {
		return
	}
	sigma := math.Sqrt(2 * math.Pi * in.p.PhaseNoiseHz / in.sampleRate)
	rot := complex(1, 0)
	var blk [rng.Block]float64
	for lo := 0; lo < len(m); lo += rng.Block {
		seg := m[lo:min(lo+rng.Block, len(m))]
		in.src.FillNormal(blk[:len(seg)])
		for i, z := range blk[:len(seg)] {
			rot *= smallRotation(z * sigma)
			if seg[i] != 0 {
				seg[i] *= rot
			}
		}
		rot *= complex(1/math.Sqrt(real(rot)*real(rot)+imag(rot)*imag(rot)), 0)
	}
	in.m.phaseNoise.Inc()
}

// smallRotation returns e^{ja}. Below |a| = 1/16 — 6σ of the phase
// increment at a 345 Hz linewidth and fs = 20 MHz — the Taylor series
// through a⁸ is exact to rounding (the first dropped term is below
// 4e-17); a larger increment falls back to Sincos.
func smallRotation(a float64) complex128 {
	if math.Abs(a) >= 1.0/16 {
		s, c := math.Sincos(a)
		return complex(c, s)
	}
	a2 := a * a
	c := 1 + a2*(-1.0/2+a2*(1.0/24+a2*(-1.0/720+a2*(1.0/40320))))
	s := a * (1 + a2*(-1.0/6+a2*(1.0/120+a2*(-1.0/5040))))
	return complex(c, s)
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
// window. The chain is walked a run at a time: each state's run length
// is geometric in its per-sample exit probability, drawn from one
// uniform. Returns the number of bursts started.
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
	// An on run of L samples is noisy throughout and exits after its
	// last sample; an off run of L samples enters a burst at the sample
	// after it, counted when the entering step falls inside y.
	for n := 0; n < len(y); on = !on {
		if on {
			end := n + in.runLength(pExit, len(y)-n)
			in.src.AddComplexNormal(y[n:end], sigma)
			n = end
			continue
		}
		n += in.runLength(pEnter, len(y)-n+1)
		if n <= len(y) {
			bursts++
		}
	}
	in.m.interfBurst.Add(int64(bursts))
	return bursts
}

// runLength draws a Markov state's run: the number of steps up to and
// including the first exit, each step exiting with probability p —
// geometric on {1, 2, …}, P(L > k) = (1−p)^k, by inversion of one
// uniform. Runs longer than limit are returned as limit.
func (in *Injector) runLength(p float64, limit int) int {
	u := 1 - in.rng.Float64() // (0, 1]
	l := 1 + math.Floor(math.Log(u)/math.Log1p(-p))
	if l >= float64(limit) {
		return limit
	}
	return int(l)
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
