package tag

import (
	"fmt"
	"math/rand"
	"sync"

	"backfi/internal/fec"
)

// Link-layer timing of paper Fig. 4, in 20 MHz samples.
const (
	// SampleRate is the baseband rate the tag timing is defined at.
	SampleRate = 20e6
	// SilentSamples is the 16 µs silent period during which the reader
	// estimates the self-interference channel.
	SilentSamples = 320
	// ChipSamples is one preamble chip (1 µs).
	ChipSamples = 20
	// DefaultPreambleChips gives the standard 32 µs tag preamble.
	DefaultPreambleChips = 32
	// ExtendedPreambleChips gives the 96 µs variant of paper Fig. 8.
	ExtendedPreambleChips = 96
)

// Config selects the tag's transmission parameters.
type Config struct {
	// Mod is the PSK order.
	Mod Modulation
	// Coding is the convolutional code rate (1/2 or 2/3 in the paper).
	Coding fec.CodeRate
	// SymbolRateHz is the switching rate, 10 kHz – 2.5 MHz; it must
	// divide SampleRate.
	SymbolRateHz float64
	// PreambleChips is the tag preamble length in 1 µs chips
	// (DefaultPreambleChips unless experimenting with training time).
	PreambleChips int
	// ID selects the wake sequence.
	ID int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Mod.Validate(); err != nil {
		return err
	}
	if err := c.Coding.Validate(); err != nil {
		return err
	}
	if c.ID < 0 {
		return fmt.Errorf("tag: negative tag ID %d", c.ID)
	}
	if c.SymbolRateHz <= 0 {
		return fmt.Errorf("tag: symbol rate must be positive")
	}
	sps := SampleRate / c.SymbolRateHz
	if sps != float64(int(sps)) {
		return fmt.Errorf("tag: symbol rate %v Hz does not divide the %v Hz sample rate", c.SymbolRateHz, float64(SampleRate))
	}
	if int(sps) < 2 {
		return fmt.Errorf("tag: symbol rate %v Hz leaves fewer than 2 samples per symbol", c.SymbolRateHz)
	}
	if c.PreambleChips < 8 {
		return fmt.Errorf("tag: preamble of %d chips too short to estimate the channel", c.PreambleChips)
	}
	return nil
}

// SamplesPerSymbol returns the baseband samples per tag symbol.
func (c Config) SamplesPerSymbol() int { return int(SampleRate / c.SymbolRateHz) }

// PreambleSamples returns the preamble duration in samples.
func (c Config) PreambleSamples() int { return c.PreambleChips * ChipSamples }

// BitRate returns the information bit rate in bits/s.
func (c Config) BitRate() float64 {
	return c.SymbolRateHz * float64(c.Mod.BitsPerSymbol()) * c.Coding.Fraction()
}

// String formats like "16PSK 2/3 @ 2.5 Msym/s".
func (c Config) String() string {
	return fmt.Sprintf("%s %s @ %g Msym/s", c.Mod, c.Coding, c.SymbolRateHz/1e6)
}

// PreambleSequence returns the tag's known pseudo-random preamble: one
// BPSK phasor (±1) per 1 µs chip. Both the tag and the reader derive it
// from the tag ID.
//
// The returned slice is shared by every caller asking for the same
// (id, chips) and must not be modified.
func PreambleSequence(id, chips int) []complex128 {
	k := preambleKey{id, chips}
	preambles.mu.Lock()
	pn, ok := preambles.m[k]
	preambles.mu.Unlock()
	if ok {
		return pn
	}
	r := rand.New(rand.NewSource(0xbacf + int64(id)))
	pn = make([]complex128, chips)
	for i := range pn {
		pn[i] = complex(float64(2*r.Intn(2)-1), 0)
	}
	preambles.mu.Lock()
	if len(preambles.m) >= maxCachedPreambles {
		clear(preambles.m)
	}
	preambles.m[k] = pn
	preambles.mu.Unlock()
	return pn
}

// maxCachedPreambles caps the preamble cache. Tag IDs are small in
// practice (a reader serves a few tags, a group numbers its members
// from 0), so the cap only matters to a caller sweeping IDs; it then
// empties the cache and starts over.
const maxCachedPreambles = 256

type preambleKey struct{ id, chips int }

var preambles = struct {
	mu sync.Mutex
	m  map[preambleKey][]complex128
}{m: map[preambleKey][]complex128{}}

// TxPlan records where each protocol phase of a tag transmission falls
// within the excitation packet, for the reader and for ground-truthing
// tests.
type TxPlan struct {
	Cfg Config
	// SilentEnd is the sample index where the silent period ends and
	// the preamble begins.
	SilentEnd int
	// PreambleEnd is where payload symbols begin.
	PreambleEnd int
	// NumSymbols is the number of payload PSK symbols.
	NumSymbols int
	// Symbols holds the transmitted constellation phasors
	// (ground truth, used by tests and BER measurement).
	Symbols []complex128
	// CodedBits are the punctured coded bits carried by Symbols.
	CodedBits []byte
	// InfoBits is the frame information bit count (multiple of 8).
	InfoBits int
	// Payload is the application payload carried.
	Payload []byte
}

// End returns the sample index where the tag stops modulating.
func (p *TxPlan) End() int {
	return p.PreambleEnd + p.NumSymbols*p.Cfg.SamplesPerSymbol()
}

// Tag is a BackFi IoT sensor.
type Tag struct {
	Cfg      Config
	Detector EnergyDetector
	wakeSeq  [WakeBits]byte
	wakeID   int
}

// New returns a tag with the given configuration.
func New(cfg Config) (*Tag, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newTag(cfg, cfg.ID), nil
}

// NewWithWake returns a tag whose wake correlator listens for wakeID's
// sequence instead of its own ID's. This is the group wake of the
// multi-tag MAC (DESIGN.md §5i): every tag in an arbitration group
// shares one wake sequence — a single wake burst lights the whole
// group — while Cfg.ID still selects the tag's own PN preamble, which
// is what the reader's joint decoder separates the reflections by.
func NewWithWake(cfg Config, wakeID int) (*Tag, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wakeID < 0 {
		return nil, fmt.Errorf("tag: negative wake ID %d", wakeID)
	}
	return newTag(cfg, wakeID), nil
}

func newTag(cfg Config, wakeID int) *Tag {
	t := &Tag{Cfg: cfg, Detector: *NewEnergyDetector(), wakeID: wakeID}
	copy(t.wakeSeq[:], WakeSequence(wakeID))
	return t
}

// WakeSeq returns the tag's 16-bit wake sequence.
func (t *Tag) WakeSeq() []byte { return t.wakeSeq[:] }

// WakeID returns the ID whose sequence the tag wakes on — Cfg.ID
// unless the tag was built with NewWithWake.
func (t *Tag) WakeID() int { return t.wakeID }

// PayloadCapacity returns the largest payload (bytes) that fits in an
// excitation packet of packetSamples.
func (t *Tag) PayloadCapacity(packetSamples int) int {
	avail := packetSamples - SilentSamples - t.Cfg.PreambleSamples()
	if avail <= 0 {
		return -1
	}
	return MaxPayloadBytes(avail/t.Cfg.SamplesPerSymbol(), t.Cfg.Coding, t.Cfg.Mod)
}

// ModulationSequence builds the per-sample reflection coefficient m[n]
// over an excitation packet of packetSamples: zero during the silent
// period, the PN preamble phasors, then the payload PSK symbols (zero
// again after the frame ends). It returns the plan describing the
// layout.
func (t *Tag) ModulationSequence(packetSamples int, payload []byte) ([]complex128, *TxPlan, error) {
	return t.ModulationSequenceInto(nil, packetSamples, payload)
}

// ModulationSequenceInto is ModulationSequence writing the sequence
// into dst's storage, which it grows only when its capacity is short.
func (t *Tag) ModulationSequenceInto(dst []complex128, packetSamples int, payload []byte) ([]complex128, *TxPlan, error) {
	cfg := t.Cfg
	if cap := t.PayloadCapacity(packetSamples); len(payload) > cap {
		return nil, nil, fmt.Errorf("tag: payload %d bytes exceeds capacity %d for %d-sample excitation", len(payload), cap, packetSamples)
	}
	coded := EncodeFrameBits(payload, cfg.Coding, cfg.Mod)
	symbols := cfg.Mod.MapBits(coded)

	if cap(dst) < packetSamples {
		dst = make([]complex128, packetSamples)
	}
	m := dst[:packetSamples]
	clear(m[:SilentSamples])
	// Preamble chips.
	pre := PreambleSequence(cfg.ID, cfg.PreambleChips)
	idx := SilentSamples
	for _, chip := range pre {
		for k := 0; k < ChipSamples; k++ {
			m[idx] = chip
			idx++
		}
	}
	// Payload symbols.
	sps := cfg.SamplesPerSymbol()
	for _, sym := range symbols {
		for k := 0; k < sps; k++ {
			m[idx] = sym
			idx++
		}
	}
	clear(m[idx:])
	plan := &TxPlan{
		Cfg:         cfg,
		SilentEnd:   SilentSamples,
		PreambleEnd: SilentSamples + cfg.PreambleSamples(),
		NumSymbols:  len(symbols),
		Symbols:     symbols,
		CodedBits:   coded,
		InfoBits:    FrameInfoBits(len(payload)),
		Payload:     payload,
	}
	return m, plan, nil
}

// Backscatter applies the modulation sequence to the excitation signal
// as seen at the tag antenna (z = x ⊛ h_f): the reflected waveform is
// the elementwise product.
func Backscatter(z, m []complex128) []complex128 {
	if len(m) > len(z) {
		m = m[:len(z)]
	}
	out := make([]complex128, len(z))
	for i := range m {
		out[i] = z[i] * m[i]
	}
	return out
}

// TryWake runs the energy detector over a received stream that should
// contain this tag's wake preamble, returning the sample index where
// the excitation packet starts.
func (t *Tag) TryWake(rx []complex128) (int, bool) {
	return t.Detector.Detect(rx, t.wakeSeq[:])
}
