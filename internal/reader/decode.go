package reader

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// headerGuardSteps is how far past the 16-bit length header the
// bounded first Viterbi pass extends before tracing back. Several
// constraint lengths of lookahead make the unterminated traceback of
// the header bits as reliable as the legacy full-frame pass at the
// SNRs where frames decode at all.
const headerGuardSteps = 8 * fec.TailBits

// timingPasses bounds the PN timing search. Each pass moves the symbol
// grid at most TimingSearch samples, so the search and the refits after
// it read nothing past preEnd+timingPasses·TimingSearch.
const timingPasses = 3

// ErrUndecodable marks a tag the decoder could not attempt on this
// capture: its preamble or its first payload symbol does not fit the
// packet, or its combined-channel fit is unusable. Decoded.Tag wraps it
// with the reason; test with errors.Is.
var ErrUndecodable = errors.New("reader: tag undecodable")

var (
	errPreambleRoom = errors.New("packet too short for tag preamble")
	errPayloadRoom  = errors.New("no room for payload symbols")
)

// Stream is one receive chain's working memory for Decode: a
// sic.Reusable canceller retrained every frame, clean/reference/estimate
// buffers, the combined-channel taps, and the FEC stage's buffers.
// Steady-state decoding allocates only its results.
//
// A Stream carries nothing from one decode to the next but buffer
// capacity, so callers pool it process-wide; the zero value is ready. A
// returned result never aliases it. Not safe for concurrent use.
type Stream struct {
	canc sic.Reusable
	fd   frameDecoder

	clean []complex128
	ref   []complex128
	ests  []complex128
	hfb   []complex128

	// Chain 0 only: the strongest candidate's taps while ranking or the
	// timing search's refit, and the tags still to peel.
	best    []complex128
	pending []int
}

// configure sizes s for the decoder configuration cfg.
func (s *Stream) configure(cfg Config) {
	s.canc.Configure(cfg.SIC)
	if L := cfg.ChannelTaps; len(s.hfb) != L {
		s.hfb = make([]complex128, L)
		s.best = make([]complex128, L)
	}
}

// Decoded is the outcome of decoding the tags of one excitation.
type Decoded struct {
	// Tags holds each tag's decode, aligned with the cfgs argument. An
	// entry is nil when the tag could not be attempted (Tag says why);
	// a failed CRC still carries a Result with FrameOK false.
	Tags []*Result
	// Order lists indices into cfgs in cancellation order: Order[0] was
	// the strongest reflection on chain 0.
	Order []int
	// SIC is chain 0's self-interference cancellation report.
	SIC sic.Report
	// why[k] wraps ErrUndecodable with the reason Tags[k] is nil.
	why []error
}

// Tag returns tag k's decode or, when it has none, an error wrapping
// ErrUndecodable that says why.
func (d *Decoded) Tag(k int) (*Result, error) {
	if d.Tags[k] == nil {
		return nil, d.why[k]
	}
	return d.Tags[k], nil
}

// fail records why tag k has no decode.
func (d *Decoded) fail(k int, reason error) {
	if d.why == nil {
		d.why = make([]error, len(d.Tags))
	}
	d.why[k] = fmt.Errorf("%w: %w", ErrUndecodable, reason)
}

// Decode decodes every tag in cfgs from one excitation received on one
// or more AP antennas: one tag (paper Sec. 4.3), extra receive chains
// as diversity (Sec. 7) and a group of preamble-selected tags woken by
// one burst (Sec. 4.1) are all this call. ex is the excitation the AP
// sent and ys[c] receive chain c's capture of its first len(ys[c])
// samples, with ss[c] its working memory; xTap is the PA-output copy,
// as long as the captures, that every chain's analog canceller taps.
// Every tag is silent for tag.SilentSamples after packetStart, then
// sends its PN preamble and payload symbols (tag.TxPlan layout);
// nothing of the captures past packetStart+packetLen is read.
//
// It is one successive-cancellation loop (DESIGN.md §5i): every chain's
// canceller retrains on the shared silent window; the pending tags are
// ranked by their preamble energy on chain 0; the PN timing search runs
// on the first-peeled layer only, and every layer shares its grid (the
// group woke on one burst); each layer is fitted on every chain from
// its own preamble, MRC-combined across chains and samples (Eq. 7),
// Viterbi-decoded and, while tags remain, rebuilt and subtracted from
// every chain through its preamble-only channel estimate. Cancellation
// and the reference cover exactly the samples read or subtracted from:
// a layer to be subtracted needs its whole frame, the last layer only
// its MRC windows, so one tag is the symbol-window single-tag decode,
// sample for sample.
//
// Argument errors and a failed canceller retrain are returned; a tag
// that cannot be attempted is a nil entry in Tags. A returned Decoded
// never aliases ss.
func (r *Reader) Decode(ss []Stream, ex *Excitation, xTap []complex128, ys [][]complex128, packetStart, packetLen int, cfgs []tag.Config) (*Decoded, error) {
	if len(ys) == 0 || len(ss) != len(ys) || len(cfgs) == 0 {
		return nil, fmt.Errorf("reader: %d streams for %d receive chains and %d tags", len(ss), len(ys), len(cfgs))
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	for _, y := range ys {
		if len(y) != len(ys[0]) || len(xTap) != len(y) || len(y) > len(ex.x) {
			return nil, fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(ex.x), len(xTap), len(y))
		}
	}
	x := ex.x[:len(ys[0])]
	if packetStart < 0 || packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}
	d := &Decoded{Tags: make([]*Result, len(cfgs)), Order: make([]int, 0, len(cfgs))}
	s := &ss[0]
	preStart := packetStart + tag.SilentSamples
	packetEnd := packetStart + packetLen

	// A tag whose preamble does not fit the packet is dropped at once.
	s.pending = s.pending[:0]
	hi := 0
	for i, c := range cfgs {
		preEnd := preStart + c.PreambleSamples()
		if preEnd > packetEnd {
			r.m.failPreamble.Inc()
			d.fail(i, errPreambleRoom)
			continue
		}
		s.pending = append(s.pending, i)
		hi = max(hi, preEnd)
	}
	if len(s.pending) == 0 {
		return d, nil
	}

	// Stage 1: retrain every chain's canceller on the silent window and
	// cancel what the ranking, the channel fits and the timing search
	// read. Everything below frontier is cancelled.
	slack := timingPasses * r.cfg.TimingSearch
	frontier := min(hi+slack, packetEnd)
	for c := range ss {
		if err := r.retrain(&ss[c], ex, x, xTap, ys[c], packetStart, frontier); err != nil {
			return nil, err
		}
	}
	d.SIC = s.canc.Report()

	offset := 0
	for round := 0; len(s.pending) > 0; round++ {
		k := r.strongest(s, d, ex, x, cfgs, preStart)
		if k < 0 {
			break
		}
		last := len(s.pending) == 0
		tcfg := cfgs[k]
		pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
		preEnd := preStart + tcfg.PreambleSamples()

		// Stage 2: chain 0's reference over the preamble; on the first
		// layer also over the timing search's reach, then the search.
		lo, refHi := max(preStart-slack, packetStart), min(preEnd+slack, packetEnd)
		s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, lo, refHi)
		if round == 0 {
			offset = r.searchGrid(s, ex, x, preStart, pn, lo, refHi)
			preStart += offset
			preEnd += offset
			slack = 0
		}
		preCorr := r.preambleCorrelation(s.clean, s.ref, preStart, pn)
		r.m.preambleCorr.Observe(preCorr)
		// The other chains fit the layer at the final grid; a layer to be
		// subtracted needs their references over its preamble too.
		var err error
		for c := 1; c < len(ss) && err == nil; c++ {
			if err = r.estimate(&ss[c], ex, preStart, pn); err == nil && !last {
				ss[c].ref = dsp.ConvolveRangeInto(ss[c].ref, x, ss[c].hfb, preStart, preEnd)
			}
		}
		if err != nil {
			d.fail(k, err)
			continue
		}

		// Stage 3: cancel, reference and MRC the header symbols, size
		// the frame from them, then do the same for the rest of it.
		sps := tcfg.SamplesPerSymbol()
		nAvail := (packetEnd - preEnd) / sps
		if nAvail <= 0 {
			r.m.failPayload.Inc()
			d.fail(k, errPayloadRoom)
			continue
		}
		g := symbolGrid{start: preEnd, sps: sps, guard: min(r.cfg.ChannelTaps, sps/2), whole: !last}
		nHdr := min(headerSymbols(tcfg), nAvail)
		frontier = r.cover(ss, x, xTap, ys, g, frontier, 0, nHdr)
		used, infoBits, sized := r.sizeFrame(s, ss[1:], g, nHdr, nAvail, tcfg)
		frontier = r.cover(ss, x, xTap, ys, g, frontier, nHdr, used)
		r.mrc(s, ss[1:], g, nHdr, used)

		// Stage 4: terminated decode over the frame symbols.
		res, used := r.frame(s, s.ests[:used], tcfg, infoBits, sized)
		res.SIC = d.SIC
		res.Hfb = append([]complex128(nil), s.hfb...)
		res.PreambleCorr = preCorr
		res.TimingOffset = offset
		if len(ss) > 1 {
			// Diagnostics: each chain's standalone SIC and post-MRC SNR
			// over the frame's symbols.
			for c := range ss {
				sc := &ss[c]
				if cap(sc.ests) < used {
					sc.ests = make([]complex128, used)
				}
				sc.mrcInto(nil, g, 0, used)
				res.PerAntennaSIC = append(res.PerAntennaSIC, sc.canc.Report())
				res.PerAntennaSNRdB = append(res.PerAntennaSNRdB, s.fd.symbolSNRdB(sc.ests[:used], tcfg.Mod))
			}
		}
		d.Tags[k] = res
		d.Order = append(d.Order, k)
		if !last {
			subtract(ss, res, used, preStart, packetEnd, tcfg)
		}
	}
	return d, nil
}

// strongest fits chain 0's channel for every pending tag at the grid
// preStart, removes from s.pending and returns the tag whose preamble
// reflection is strongest, with its taps in s.hfb; -1 when no fit
// succeeds. A failed fit is dropped and recorded once. With one tag
// pending there is nothing to rank, so no energy is computed.
func (r *Reader) strongest(s *Stream, d *Decoded, ex *Excitation, x []complex128, cfgs []tag.Config, preStart int) int {
	best, bestE := -1, 0.0
	rank := len(s.pending) > 1
	next := s.pending[:0]
	for _, i := range s.pending {
		tcfg := cfgs[i]
		if err := r.estimate(s, ex, preStart, tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)); err != nil {
			d.fail(i, err)
			continue
		}
		var e float64
		if rank {
			preEnd := preStart + tcfg.PreambleSamples()
			s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, preStart, preEnd)
			for _, v := range s.ref[preStart:preEnd] {
				e += real(v)*real(v) + imag(v)*imag(v)
			}
		}
		if best == -1 || e > bestE {
			if best != -1 {
				next = append(next, best)
			}
			best, bestE = i, e
			s.hfb, s.best = s.best, s.hfb
		} else {
			next = append(next, i)
		}
	}
	s.pending = next
	s.hfb, s.best = s.best, s.hfb
	return best
}

// searchGrid runs the PN timing search on chain 0 around preStart and
// returns the grid offset it settles on. Each move refits the channel
// at the new grid and reconvolves the reference over [lo, hi) (a badly
// misaligned first estimate flattens the metric, so one pass can stop
// short of the true offset). A move whose refit fails is not taken:
// the search stops at the last grid it could fit, with its taps.
func (r *Reader) searchGrid(s *Stream, ex *Excitation, x []complex128, preStart int, pn []complex128, lo, hi int) int {
	tsp := r.trace.Start("timing_search")
	sp := r.m.spanTiming.Start()
	offset := 0
	for pass := 0; pass < timingPasses; pass++ {
		step := r.searchTiming(s.clean, s.ref, preStart+offset, pn)
		if step == 0 {
			break
		}
		if s.estimateHfbInto(r.cfg, ex, s.best, preStart+offset+step, pn) != nil {
			break
		}
		offset += step
		s.hfb, s.best = s.best, s.hfb
		s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, lo, hi)
	}
	sp.End()
	tsp.End()
	if offset != 0 {
		r.m.timingAdjusted.Inc()
	}
	r.m.timingOffset.Observe(math.Abs(float64(offset)))
	return offset
}

// symbolGrid places a layer's payload symbols: symbol k spans
// [start+k·sps, start+(k+1)·sps), and MRC reads it after its first
// guard samples. whole marks a layer that will be subtracted, whose
// symbols are cancelled and referenced whole.
type symbolGrid struct {
	start, sps, guard int
	whole             bool
}

// headerSymbols is how many symbols the bounded header pass reads: the
// 16-bit length plus headerGuardSteps of lookahead, coded and mapped.
func headerSymbols(tcfg tag.Config) int {
	bps := tcfg.Mod.BitsPerSymbol()
	return (fec.PuncturedLength(2*(16+headerGuardSteps), tcfg.Coding) + bps - 1) / bps
}

// sizeFrame reads the frame's extent from its first nHdr of nAvail
// symbols: MRC over them (s's chain plus extra), then the bounded
// header pass. A frame it cannot size (noise, or a length header
// pointing past the packet) gets all nAvail symbols and sized false, so
// the decode re-reads the header from every symbol and failures are
// diagnosed as by a whole-window decode.
func (r *Reader) sizeFrame(s *Stream, extra []Stream, g symbolGrid, nHdr, nAvail int, tcfg tag.Config) (used, infoBits int, sized bool) {
	if cap(s.ests) < nAvail {
		s.ests = make([]complex128, nAvail)
	}
	r.mrc(s, extra, g, 0, nHdr)
	tsp := r.trace.Start("viterbi")
	sp := r.m.spanViterbi.Start()
	used, infoBits, sized = s.fd.frameExtent(s.ests[:nHdr], tcfg)
	sp.End()
	tsp.End()
	if sized = sized && used <= nAvail; !sized {
		used = nAvail
	}
	return used, infoBits, sized
}

// mrc is the per-symbol MRC stage: s.mrcInto over symbols [from, to),
// timed.
func (r *Reader) mrc(s *Stream, extra []Stream, g symbolGrid, from, to int) {
	tsp := r.trace.Start("mrc")
	sp := r.m.spanMRC.Start()
	s.mrcInto(extra, g, from, to)
	sp.End()
	tsp.End()
}

// cover cancels every chain's capture and convolves its reference over
// symbols [from, to) of grid g and nowhere else: their MRC windows, or
// the symbols whole when g.whole. Samples below frontier are already
// cancelled and may hold earlier layers' subtractions, so only the part
// of a span at or above it is cancelled. Whole symbols are contiguous
// from below the frontier, so covering them moves it; the new frontier
// is returned.
func (r *Reader) cover(ss []Stream, x, xTap []complex128, ys [][]complex128, g symbolGrid, frontier, from, to int) int {
	if from >= to {
		return frontier
	}
	tsp := r.trace.Start("sic_cancel")
	sp := r.m.spanSICCancel.Start()
	for c := range ss {
		s := &ss[c]
		span := func(a, b int) {
			s.clean = s.canc.CancelRange(s.clean, xTap, x, ys[c], max(a, frontier), b)
			s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, a, b)
		}
		if g.whole {
			span(g.start+from*g.sps, g.start+to*g.sps)
			continue
		}
		for k := from; k < to; k++ {
			span(g.start+k*g.sps+g.guard, g.start+(k+1)*g.sps)
		}
	}
	sp.End()
	tsp.End()
	if g.whole {
		frontier = max(frontier, g.start+to*g.sps)
	}
	return frontier
}

// retrain is stage 1 of every decode: s's reusable canceller retrained
// on the silent window after packetStart, which also cancels that
// window, then capture y cancelled over the rest of [packetStart, hi).
func (r *Reader) retrain(s *Stream, ex *Excitation, x, xTap, y []complex128, packetStart, hi int) error {
	s.configure(r.cfg)
	s.canc.SetTrace(r.trace)
	stop := packetStart + tag.SilentSamples
	tsp := r.trace.Start("sic_train")
	sp := r.m.spanSICTrain.Start()
	digital := ex.cancellerFactor(r.cfg.SIC.DigitalTaps, packetStart, stop, r.cfg.SIC.Lambda)
	var err error
	s.clean, err = s.canc.Retrain(s.clean, xTap, x, digital, y, packetStart, stop)
	sp.End()
	tsp.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return fmt.Errorf("reader: %w", err)
	}
	tsp = r.trace.Start("sic_cancel")
	sp = r.m.spanSICCancel.Start()
	s.clean = s.canc.CancelRange(s.clean, xTap, x, y, stop, hi)
	sp.End()
	tsp.End()
	return nil
}

// estimate fits s's combined channel from the preamble at preStart into
// s.hfb, timed and counted.
func (r *Reader) estimate(s *Stream, ex *Excitation, preStart int, pn []complex128) error {
	tsp := r.trace.Start("channel_estimate")
	sp := r.m.spanChanEst.Start()
	err := s.estimateHfbInto(r.cfg, ex, s.hfb, preStart, pn)
	sp.End()
	tsp.End()
	if err != nil {
		r.m.failChanEst.Inc()
	}
	return err
}

// frame is stage 4 of every layer: demap and Viterbi-decode the symbol
// estimates ests into a Result (see frameDecoder.decodeFrame for used,
// infoBits and sized). It returns the symbol count the frame occupied —
// the subtraction bound when the CRC failed and the payload length is
// untrusted.
func (r *Reader) frame(s *Stream, ests []complex128, tcfg tag.Config, infoBits int, sized bool) (*Result, int) {
	tsp := r.trace.Start("viterbi")
	sp := r.m.spanViterbi.Start()
	payload, used, corrected, ok := s.fd.decodeFrame(ests, tcfg, infoBits, sized)
	sp.End()
	tsp.End()
	if ok {
		r.m.viterbiBits.Observe(float64(corrected))
	} else {
		r.m.failFrameCRC.Inc()
	}
	res := &Result{
		Payload:              payload,
		FrameOK:              ok,
		SymbolEstimates:      append([]complex128(nil), ests...),
		ViterbiCorrectedBits: corrected,
		SNRdB:                s.fd.symbolSNRdB(ests[:used], tcfg.Mod),
	}
	return res, used
}

// subtract removes a decoded layer's reflection m̂[n]·ref[n] from every
// chain's residual over the samples its frame occupied: the PN chips,
// then the payload symbols — exact when the CRC validated (re-encode),
// hard symbol decisions over the frame's symbols otherwise. Each
// chain's ref must hold the layer's reference there; the symbols are
// rebuilt in chain 0's frame decoder scratch.
func subtract(ss []Stream, res *Result, used, preStart, packetEnd int, tcfg tag.Config) {
	fd := &ss[0].fd
	if res.FrameOK {
		fd.bits = tag.EncodeFrameBitsInto(fd.bits, res.Payload, tcfg.Coding, tcfg.Mod)
	} else {
		used = min(used, len(res.SymbolEstimates))
		fd.bits = tcfg.Mod.DemapHardInto(fd.bits, res.SymbolEstimates[:used])
	}
	fd.syms = tcfg.Mod.MapBitsInto(fd.syms, fd.bits)
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	sps := tcfg.SamplesPerSymbol()
	for c := range ss {
		clean, ref := ss[c].clean[:packetEnd], ss[c].ref
		n := preStart
		for _, chip := range pn {
			for k := 0; k < tag.ChipSamples && n < len(clean); k++ {
				clean[n] -= chip * ref[n]
				n++
			}
		}
		for _, sym := range fd.syms {
			for k := 0; k < sps && n < len(clean); k++ {
				clean[n] -= sym * ref[n]
				n++
			}
		}
	}
}

// mrcInto fills s.ests[from:to) with the per-symbol MRC estimates
// (paper Eq. 7) from s's clean/ref buffers combined with those of the
// extra receive chains: each symbol's sums start from s's and add the
// other chains in order, so no extra chains is single-antenna MRC.
func (s *Stream) mrcInto(extra []Stream, g symbolGrid, from, to int) {
	for sym := from; sym < to; sym++ {
		a := g.start + sym*g.sps + g.guard
		b := g.start + (sym+1)*g.sps
		num, den := s.mrcSums(a, b)
		for c := range extra {
			n, d := extra[c].mrcSums(a, b)
			num += n
			den += d
		}
		if den > 0 {
			s.ests[sym] = num / complex(den, 0)
		} else {
			s.ests[sym] = 0
		}
	}
}

// mrcSums returns one chain's MRC numerator Σ clean·ref* and
// denominator Σ |ref|² over samples [a, b).
func (s *Stream) mrcSums(a, b int) (num complex128, den float64) {
	clean, ref := s.clean, s.ref
	for n := a; n < b; n++ {
		num += clean[n] * cmplx.Conj(ref[n])
		den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
	}
	return num, den
}

// frameExtent runs the bounded first Viterbi pass over the header
// symbols and returns the frame's symbol count and info-bit length.
// ok is false when the header cannot be read from the given symbols.
func (d *frameDecoder) frameExtent(hdrEsts []complex128, tcfg tag.Config) (used, infoBits int, ok bool) {
	d.soft = tcfg.Mod.DemapSoftInto(d.soft, hdrEsts)
	n, ok := d.readLength(d.soft, tcfg.Coding)
	if !ok {
		return 0, 0, false
	}
	return tag.SymbolsForPayload(n, tcfg.Coding, tcfg.Mod), tag.FrameInfoBits(n), true
}

// estimateHfbInto solves least squares for the combined channel from
// s.clean using preamble samples where the PN chip is constant across
// the whole channel span (so y[n] = chip · (x⊛h_fb)[n] exactly), into
// dst. The normal equations' Gram matrix reads only the excitation, so
// its factor comes from ex's memo; this sums the right-hand side Aᴴy
// and solves. A factor that failed leaves the unsolved right-hand side
// in dst. Taps agree with the dense reference fit (reference_test.go)
// to solver precision, not bit for bit.
func (s *Stream) estimateHfbInto(cfg Config, ex *Excitation, dst []complex128, preStart int, pn []complex128) error {
	L := cfg.ChannelTaps
	if rows := len(pn) * max(tag.ChipSamples-L+1, 0); rows < 2*L {
		return fmt.Errorf("reader: only %d usable preamble samples for %d taps", rows, L)
	}
	f := ex.channelFactor(L, cfg.Lambda, preStart, pn)
	x, clean := ex.x, s.clean
	clear(dst)
	for c, chip := range pn {
		chipStart := preStart + c*tag.ChipSamples
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			// Row n of the design matrix is chip·x[n-k].
			chipY := cmplx.Conj(chip) * clean[n]
			for k := 0; k < L; k++ {
				dst[k] += cmplx.Conj(x[n-k]) * chipY
			}
		}
	}
	if err := f.Solve(dst); err != nil {
		return fmt.Errorf("reader: channel estimate: %w", err)
	}
	return nil
}
