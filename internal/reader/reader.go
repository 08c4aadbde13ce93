// Package reader implements the BackFi AP's backscatter receive chain
// (paper Sec. 4.3): after self-interference cancellation it estimates
// the combined forward·backward tag channel h_f⊛h_b from the tag's
// known preamble, then decodes each slow tag symbol by maximal-ratio
// combining the many excitation-rate samples that fall inside it
// (paper Eq. 7), and finally runs the soft values through the Viterbi
// decoder and frame check.
package reader

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/obs"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// Config tunes the backscatter decoder.
type Config struct {
	// ChannelTaps is the FIR length of the combined h_f⊛h_b estimate;
	// it must cover the true channel spread plus propagation delay
	// (paper: delay spread ≪ 500 ns, so ≤ 16 taps at 20 MHz).
	ChannelTaps int
	// Lambda is the ridge regularizer of the channel estimate.
	Lambda float64
	// TimingSearch is the ± range (in samples) over which the decoder
	// searches for the tag's symbol timing around the nominal protocol
	// position, using the PN preamble correlation (paper Sec. 4.1: the
	// preamble "is used by the reader to find the symbol timing").
	// 0 trusts protocol timing exactly.
	TimingSearch int
	// SIC is the self-interference canceller configuration.
	SIC sic.Config
	// Obs receives per-stage pipeline metrics (stage durations, failure
	// counters, preamble correlation, timing offsets, Viterbi corrected
	// bits). Nil disables instrumentation at zero cost. A registry set
	// here is inherited by the SIC stage (and, via core.NewLink, by the
	// whole link) unless those set their own.
	Obs *obs.Registry
}

// DefaultConfig returns the standard decoder settings.
func DefaultConfig() Config {
	return Config{ChannelTaps: 8, Lambda: 1e-16, TimingSearch: 6, SIC: sic.DefaultConfig()}
}

// Validate checks the decoder configuration, including the embedded
// canceller's.
func (c Config) Validate() error {
	if c.ChannelTaps <= 0 {
		return fmt.Errorf("reader: ChannelTaps %d must be positive", c.ChannelTaps)
	}
	if c.Lambda < 0 {
		return fmt.Errorf("reader: ridge regularizer %v must be non-negative", c.Lambda)
	}
	if c.TimingSearch < 0 {
		return fmt.Errorf("reader: TimingSearch %d must be non-negative", c.TimingSearch)
	}
	return c.SIC.Validate()
}

// Result is the outcome of decoding one tag transmission.
type Result struct {
	// Payload is the decoded application payload (nil if the frame
	// check failed).
	Payload []byte
	// FrameOK reports whether the CRC validated.
	FrameOK bool
	// SymbolEstimates are the per-symbol MRC phasor estimates r_s ≈
	// the transmitted constellation points.
	SymbolEstimates []complex128
	// SNRdB is the post-MRC symbol SNR estimated from the decision
	// errors — the "measured SNR" of paper Fig. 11a.
	SNRdB float64
	// SIC is the cancellation report.
	SIC sic.Report
	// Hfb is the combined channel estimate.
	Hfb []complex128
	// PreambleCorr is the normalized correlation of the received tag
	// preamble against the expected PN (1 = perfect).
	PreambleCorr float64
	// TimingOffset is the symbol-timing correction (samples) found by
	// the PN preamble search relative to the nominal protocol timing.
	TimingOffset int
	// ViterbiCorrectedBits counts the coded bits the Viterbi decoder
	// corrected inside the frame: hard decisions on the received soft
	// values vs the re-encoded decoded frame. 0 when the frame failed.
	ViterbiCorrectedBits int
	// PerAntennaSIC and PerAntennaSNRdB report each receive chain's own
	// cancellation and standalone post-MRC symbol SNR (diagnostics; the
	// payload is decoded from the cross-antenna combine). Both are nil
	// for a single-antenna decode, whose SIC and SNRdB already say it.
	PerAntennaSIC   []sic.Report
	PerAntennaSNRdB []float64
}

// readerMetrics holds the decoder's instrument handles, resolved once
// at New so the per-packet path does no registry lookups. Every field
// is nil when metrics are disabled; all operations on nil instruments
// are no-ops.
type readerMetrics struct {
	spanSICTrain   *obs.Histogram
	spanSICCancel  *obs.Histogram
	spanChanEst    *obs.Histogram
	spanTiming     *obs.Histogram
	spanMRC        *obs.Histogram
	spanViterbi    *obs.Histogram
	preambleCorr   *obs.Histogram
	timingOffset   *obs.Histogram
	viterbiBits    *obs.Histogram
	failSICTrain   *obs.Counter
	failChanEst    *obs.Counter
	failPreamble   *obs.Counter
	failPayload    *obs.Counter
	failFrameCRC   *obs.Counter
	timingAdjusted *obs.Counter
}

func newReaderMetrics(r *obs.Registry) readerMetrics {
	if r == nil {
		return readerMetrics{}
	}
	stage := func(name string) *obs.Histogram {
		return r.Histogram(obs.MetricStageDuration, obs.HelpStageDuration, obs.DurationBuckets, "stage", name)
	}
	fail := func(name string) *obs.Counter {
		return r.Counter(obs.MetricStageFailures, "Decode aborts and frame failures by pipeline stage.", "stage", name)
	}
	return readerMetrics{
		spanSICTrain:   stage("sic_train"),
		spanSICCancel:  stage("sic_cancel"),
		spanChanEst:    stage("channel_estimate"),
		spanTiming:     stage("timing_search"),
		spanMRC:        stage("mrc"),
		spanViterbi:    stage("viterbi"),
		preambleCorr:   r.Histogram(obs.MetricPreambleCorr, "Normalized tag-preamble correlation (1 = perfect).", obs.LinBuckets(0, 0.05, 21)),
		timingOffset:   r.Histogram(obs.MetricTimingOffset, "Absolute symbol-timing correction in samples.", obs.CountBuckets),
		viterbiBits:    r.Histogram(obs.MetricViterbiCorrected, "Coded bits corrected by the Viterbi decoder per frame.", obs.CountBuckets),
		failSICTrain:   fail("sic_train"),
		failChanEst:    fail("channel_estimate"),
		failPreamble:   fail("preamble_room"),
		failPayload:    fail("payload_room"),
		failFrameCRC:   fail("frame_crc"),
		timingAdjusted: r.Counter("backfi_timing_adjusted_total", "Decodes where the PN search moved symbol timing off the protocol position."),
	}
}

// Reader decodes BackFi backscatter from an AP's received samples.
type Reader struct {
	cfg   Config
	m     readerMetrics
	trace obs.TraceCtx
}

// SetTrace points subsequent decodes at the per-frame trace context
// (DESIGN.md §5h): each pipeline stage records a span onto it,
// including the SIC training sub-stages. The zero value disables
// tracing; the serving layer reassigns it per frame. Not safe
// concurrently with a running decode — same contract as the Reader
// itself.
func (r *Reader) SetTrace(t obs.TraceCtx) { r.trace = t }

// New returns a Reader, rejecting bad configuration with an error
// (never a panic).
func New(cfg Config) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SIC.Obs == nil {
		cfg.SIC.Obs = cfg.Obs
	}
	return &Reader{cfg: cfg, m: newReaderMetrics(cfg.Obs)}, nil
}

// searchTiming slides the chip grid ±TimingSearch samples around the
// nominal preamble start and returns the offset with the strongest PN
// correlation. The coarse channel estimate (made at nominal timing) is
// good enough to rank candidates because most chip samples still carry
// a constant chip within the search range.
func (r *Reader) searchTiming(clean, ref []complex128, preStart int, pn []complex128) int {
	if r.cfg.TimingSearch <= 0 {
		return 0
	}
	nominal := r.timingMetric(clean, ref, preStart, pn)
	best, bestOff := nominal, 0
	for off := -r.cfg.TimingSearch; off <= r.cfg.TimingSearch; off++ {
		if off == 0 || preStart+off < 0 {
			continue
		}
		if m := r.timingMetric(clean, ref, preStart+off, pn); m > best {
			best, bestOff = m, off
		}
	}
	// Only move off the protocol timing for a clear win: near-flat
	// metric around the nominal position means the channel estimate
	// already absorbed any small delay, and moving the MRC grid would
	// only misalign short symbols.
	if best < nominal*1.05 {
		return 0
	}
	return bestOff
}

// timingMetric is the matched-filter energy of the preamble at a
// candidate chip-grid position: the real part of the chip-wise MRC
// numerators projected onto the known PN. Unlike the normalized
// correlation it decays when the grid is misaligned (part of every
// window then carries the wrong chip), so it peaks at true timing.
func (r *Reader) timingMetric(clean, ref []complex128, preStart int, pn []complex128) float64 {
	guard := r.cfg.ChannelTaps
	if guard >= tag.ChipSamples {
		guard = tag.ChipSamples / 2
	}
	var acc complex128
	for c, chip := range pn {
		a := preStart + c*tag.ChipSamples + guard
		b := preStart + (c+1)*tag.ChipSamples
		var num complex128
		for n := a; n < b && n < len(clean); n++ {
			if n < 0 {
				continue
			}
			num += clean[n] * cmplx.Conj(ref[n])
		}
		acc += num * cmplx.Conj(chip)
	}
	return real(acc)
}

// preambleCorrelation MRC-decodes each preamble chip and correlates
// with the expected PN.
func (r *Reader) preambleCorrelation(clean, ref []complex128, preStart int, pn []complex128) float64 {
	guard := r.cfg.ChannelTaps
	if guard >= tag.ChipSamples {
		guard = tag.ChipSamples / 2
	}
	var acc complex128
	var norm float64
	for c, chip := range pn {
		a := preStart + c*tag.ChipSamples + guard
		b := preStart + (c+1)*tag.ChipSamples
		var num complex128
		var den float64
		for n := a; n < b && n < len(clean); n++ {
			num += clean[n] * cmplx.Conj(ref[n])
			den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
		}
		if den > 0 {
			est := num / complex(den, 0)
			acc += est * cmplx.Conj(chip)
			norm += cmplx.Abs(est)
		}
	}
	if norm == 0 {
		return 0
	}
	return cmplx.Abs(acc) / norm
}

// frameDecoder is the FEC/framing stage's working memory: the Viterbi
// scratch, the demapped soft values, and the re-encode buffers behind
// the corrected-bit count and the joint decoder's layer reconstruction.
// The zero value is ready; one reused across frames stops allocating
// once its buffers have grown (only the returned payload is new). Not
// safe for concurrent use.
type frameDecoder struct {
	vit  fec.Viterbi
	soft []float64
	bits []byte       // re-encoded or hard-decided coded bits
	syms []complex128 // their constellation points
}

// readLength runs an unterminated Viterbi pass over every whole trellis
// step soft holds and returns the frame's 16-bit length header. ok is
// false when soft is too short to carry the header.
func (d *frameDecoder) readLength(soft []float64, coding fec.CodeRate) (n int, ok bool) {
	steps := maxTrellisSteps(len(soft), coding)
	if steps < 16+fec.TailBits {
		return 0, false
	}
	need := fec.PuncturedLength(2*steps, coding)
	bits, err := d.vit.DecodePunctured(soft[:need], coding, steps, false)
	if err != nil {
		return 0, false
	}
	for i := 0; i < 16; i++ {
		n |= int(bits[i]) << uint(i)
	}
	return n, true
}

// decodeFrame demaps symbol estimates and runs the terminated Viterbi
// decode of the frame they carry. A sized frame occupies all of ests
// and carries infoBits; otherwise the length header is first read by an
// unterminated pass over every estimate. It returns the payload (nil on
// failure), the number of symbols the frame occupied, the number of
// coded bits the Viterbi decoder corrected (0 unless the frame
// validated), and whether the CRC validated.
func (d *frameDecoder) decodeFrame(ests []complex128, tcfg tag.Config, infoBits int, sized bool) ([]byte, int, int, bool) {
	used := len(ests)
	if sized {
		d.soft = tcfg.Mod.DemapSoftInto(d.soft, ests)
	} else if used, infoBits, sized = d.frameExtent(ests, tcfg); !sized || used > len(ests) {
		return nil, len(ests), 0, false
	}
	frameSoft := d.soft[:used*tcfg.Mod.BitsPerSymbol()]
	payload, err := tag.DecodeFrameBits(&d.vit, frameSoft, tcfg.Coding, infoBits)
	if err != nil {
		return nil, used, 0, false
	}
	return payload, used, d.correctedBits(frameSoft, payload, tcfg), true
}

// correctedBits counts the coded-bit flips the Viterbi decoder fixed:
// hard decisions on the received soft values vs the re-encoded decoded
// frame. This is the receiver-side error tally — unlike RawBER it
// needs no ground truth, so it works on real payloads.
func (d *frameDecoder) correctedBits(frameSoft []float64, payload []byte, tcfg tag.Config) int {
	d.bits = tag.EncodeFrameBitsInto(d.bits, payload, tcfg.Coding, tcfg.Mod)
	reenc := d.bits
	n := min(len(reenc), len(frameSoft))
	count := 0
	for i := 0; i < n; i++ {
		// Soft convention: positive → bit 0, negative → bit 1.
		var hard byte
		if frameSoft[i] < 0 {
			hard = 1
		}
		if hard != reenc[i] {
			count++
		}
	}
	return count
}

// maxTrellisSteps returns the largest trellis step count whose
// punctured length fits in softLen values.
func maxTrellisSteps(softLen int, coding fec.CodeRate) int {
	lo, hi := 0, softLen // punctured length >= steps, so steps <= softLen
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if fec.PuncturedLength(2*mid, coding) <= softLen {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// symbolSNRdB estimates post-MRC SNR from decision errors, making its
// symbol decisions in d's scratch.
func (d *frameDecoder) symbolSNRdB(ests []complex128, mod tag.Modulation) float64 {
	if len(ests) == 0 {
		return math.Inf(-1)
	}
	d.bits = mod.DemapHardInto(d.bits, ests)
	d.syms = mod.MapBitsInto(d.syms, d.bits)
	ideal := d.syms
	// PSK decisions are phase-only; reference each decision at the
	// packet's mean estimate amplitude so both phase and amplitude
	// deviations count as noise.
	var meanMag float64
	for _, e := range ests {
		meanMag += cmplx.Abs(e)
	}
	meanMag /= float64(len(ests))
	var sig, noise float64
	for i := range ests {
		ref := ideal[i] * complex(meanMag, 0)
		d := ests[i] - ref
		sig += meanMag * meanMag
		noise += real(d)*real(d) + imag(d)*imag(d)
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return dsp.DB(sig / noise)
}
