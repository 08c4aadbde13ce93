package reader

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/fec"
	"backfi/internal/linalg"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// headerGuardSteps is how far past the 16-bit length header the
// bounded first Viterbi pass extends before tracing back. Several
// constraint lengths of lookahead make the unterminated traceback of
// the header bits as reliable as the legacy full-frame pass at the
// SNRs where frames decode at all.
const headerGuardSteps = 8 * fec.TailBits

// timingPasses bounds the PN timing search in DecodeStream. Each pass
// moves the symbol grid at most TimingSearch samples, so the search and
// the refits after it read nothing past preEnd+timingPasses·TimingSearch.
const timingPasses = 3

// Stream is one receive chain's working memory for the windowed
// decoders DecodeStream and DecodeJoint: a sic.Reusable canceller
// retrained every frame, clean/reference/estimate buffers, the
// normal-equation scratch of the combined-channel estimate, and the FEC
// stage's buffers. Steady-state decoding allocates only its results.
//
// Decoding is windowed: instead of cancelling and correlating over the
// whole capture, DecodeStream processes [packetStart, preamble end +
// timing slack) for training, channel fits and timing, then only the
// samples per-symbol MRC reads: each symbol after its guard, first over
// the header symbols, then — once a bounded Viterbi pass has read the
// frame length — over the rest of the frame. Results are deterministic
// but not bit-identical to the full-capture reference decoders
// (reference_test.go): the normal-equation channel fit rounds
// differently, and symbol estimates stop at the frame boundary instead
// of covering the tag's post-frame silence.
//
// A Stream carries nothing from one decode to the next but buffer
// capacity, so callers pool it process-wide; the zero value is ready. A
// returned Result never aliases it. Not safe for concurrent use.
type Stream struct {
	canc sic.Reusable
	fd   frameDecoder

	clean []complex128
	ref   []complex128
	ests  []complex128
	gram  *linalg.Matrix
	rhs   []complex128
	hfb   []complex128

	// Joint decode only: the strongest candidate's taps so far and the
	// tags still to peel.
	best    []complex128
	pending []int
}

// configure sizes s for the decoder configuration cfg.
func (s *Stream) configure(cfg Config) {
	s.canc.Configure(cfg.SIC)
	if L := cfg.ChannelTaps; s.gram == nil || s.gram.Rows != L {
		s.gram = linalg.NewMatrix(L, L)
		s.rhs = make([]complex128, L)
		s.hfb = make([]complex128, L)
		s.best = make([]complex128, L)
	}
}

// DecodeStream decodes one tag transmission received on one or more AP
// antennas (paper Sec. 7: extra receive chains add diversity gain).
// ys[c] is receive chain c's capture, aligned with x, and ss[c] its
// working memory; xTap is the PA-output copy every chain's analog
// canceller taps. The tag is silent for tag.SilentSamples after
// packetStart, sends its PN preamble, then payload symbols (tag.TxPlan
// layout); nothing past packetStart+packetLen is read.
//
// Each chain retrains its own canceller on the silent window and fits
// its own combined channel. Symbol timing comes from chain 0's PN
// matched filter (the tag's clock is common to all antennas), and the
// per-symbol MRC (paper Eq. 7) sums across antennas as well as across
// samples. With one chain the result carries no per-antenna fields.
func (r *Reader) DecodeStream(ss []Stream, x, xTap []complex128, ys [][]complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	if len(ys) == 0 || len(ss) != len(ys) {
		return nil, fmt.Errorf("reader: %d streams for %d receive chains", len(ss), len(ys))
	}
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkCapture(x, xTap, ys, packetStart, packetLen); err != nil {
		return nil, err
	}
	preStart := packetStart + tag.SilentSamples
	preEnd := preStart + tcfg.PreambleSamples()
	packetEnd := packetStart + packetLen
	if preEnd > packetEnd {
		r.m.failPreamble.Inc()
		return nil, fmt.Errorf("reader: packet too short for tag preamble")
	}

	// Stage 1: retrain every chain's canceller on the silent window and
	// cancel what the channel fits and the timing search read: silent +
	// preamble + timing slack.
	hi := min(preEnd+timingPasses*r.cfg.TimingSearch, packetEnd)
	for c := range ss {
		if err := r.retrain(&ss[c], x, xTap, ys[c], packetStart, hi); err != nil {
			return nil, err
		}
	}

	// Stage 2: channel estimation + timing on chain 0, windowed; the
	// other chains fit their own channels at chain 0's timing.
	s := &ss[0]
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	if err := r.fit(s, x, preStart, pn, packetStart, hi); err != nil {
		return nil, err
	}
	tspTiming := r.trace.Start("timing_search")
	spTiming := r.m.spanTiming.Start()
	offset := 0
	for pass := 0; pass < timingPasses; pass++ {
		step := r.searchTiming(s.clean, s.ref, preStart, pn)
		if step == 0 {
			break
		}
		offset += step
		preStart += step
		preEnd += step
		if err := s.estimateHfbInto(r.cfg, x, s.clean, preStart, pn); err == nil {
			s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, packetStart, hi)
		}
	}
	spTiming.End()
	tspTiming.End()
	if offset != 0 {
		r.m.timingAdjusted.Inc()
	}
	r.m.timingOffset.Observe(math.Abs(float64(offset)))
	preCorr := r.preambleCorrelation(s.clean, s.ref, preStart, pn)
	r.m.preambleCorr.Observe(preCorr)
	for c := 1; c < len(ss); c++ {
		if err := r.fit(&ss[c], x, preStart, pn, packetStart, hi); err != nil {
			return nil, err
		}
	}

	// Stage 3: cancel, reference and MRC the header symbols, size the
	// frame from them, then do the same for the rest of its symbols.
	symStart := preEnd
	sps := tcfg.SamplesPerSymbol()
	guard := min(r.cfg.ChannelTaps, sps/2)
	nAvail := (packetEnd - symStart) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		return nil, fmt.Errorf("reader: no room for payload symbols")
	}
	nHdr := min(headerSymbols(tcfg), nAvail)
	r.cancelSymbols(ss, x, xTap, ys, symStart, sps, guard, 0, nHdr)
	used, infoBits, sized := r.sizeFrame(s, ss[1:], symStart, sps, guard, nHdr, nAvail, tcfg)
	r.cancelSymbols(ss, x, xTap, ys, symStart, sps, guard, nHdr, used)
	r.mrc(s, ss[1:], symStart, sps, guard, nHdr, used)

	// Stage 4: terminated decode over the frame symbols.
	res, used := r.frame(s, s.ests[:used], tcfg, infoBits, sized)
	res.SIC = s.canc.Report()
	res.Hfb = append([]complex128(nil), s.hfb...)
	res.PreambleCorr = preCorr
	res.TimingOffset = offset
	if len(ss) > 1 {
		// Diagnostics: each chain's standalone SIC and post-MRC SNR over
		// the frame's symbols.
		for c := range ss {
			sc := &ss[c]
			if cap(sc.ests) < used {
				sc.ests = make([]complex128, used)
			}
			sc.mrcInto(nil, symStart, sps, guard, 0, used)
			res.PerAntennaSIC = append(res.PerAntennaSIC, sc.canc.Report())
			res.PerAntennaSNRdB = append(res.PerAntennaSNRdB, s.fd.symbolSNRdB(sc.ests[:used], tcfg.Mod))
		}
	}
	return res, nil
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
func (r *Reader) sizeFrame(s *Stream, extra []Stream, symStart, sps, guard, nHdr, nAvail int, tcfg tag.Config) (used, infoBits int, sized bool) {
	if cap(s.ests) < nAvail {
		s.ests = make([]complex128, nAvail)
	}
	r.mrc(s, extra, symStart, sps, guard, 0, nHdr)
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
func (r *Reader) mrc(s *Stream, extra []Stream, symStart, sps, guard, from, to int) {
	tsp := r.trace.Start("mrc")
	sp := r.m.spanMRC.Start()
	s.mrcInto(extra, symStart, sps, guard, from, to)
	sp.End()
	tsp.End()
}

// checkCapture rejects captures the decoders cannot read: one not
// aligned with the excitation copies, or a packet running past them.
func checkCapture(x, xTap []complex128, ys [][]complex128, packetStart, packetLen int) error {
	for _, y := range ys {
		if len(x) != len(y) || len(xTap) != len(y) {
			return fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(x), len(xTap), len(y))
		}
	}
	if packetStart+packetLen > len(x) {
		return fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}
	return nil
}

// cancelSymbols cancels every chain's capture and convolves its
// reference over the MRC windows of symbols [from, to) — each symbol's
// samples after its guard, exactly what mrcInto reads — and nowhere
// else.
func (r *Reader) cancelSymbols(ss []Stream, x, xTap []complex128, ys [][]complex128, symStart, sps, guard, from, to int) {
	if from >= to {
		return
	}
	tsp := r.trace.Start("sic_cancel")
	sp := r.m.spanSICCancel.Start()
	for c := range ss {
		s := &ss[c]
		for k := from; k < to; k++ {
			a, b := symStart+k*sps+guard, symStart+(k+1)*sps
			s.clean = s.canc.CancelRange(s.clean, xTap, x, ys[c], a, b)
			s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, a, b)
		}
	}
	sp.End()
	tsp.End()
}

// retrain is stage 1 of every decode: s's reusable canceller retrained
// on the silent window after packetStart, then capture y cancelled over
// [packetStart, hi).
func (r *Reader) retrain(s *Stream, x, xTap, y []complex128, packetStart, hi int) error {
	s.configure(r.cfg)
	s.canc.SetTrace(r.trace)
	tsp := r.trace.Start("sic_train")
	sp := r.m.spanSICTrain.Start()
	err := s.canc.Retrain(xTap, x, y, packetStart, packetStart+tag.SilentSamples)
	sp.End()
	tsp.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return fmt.Errorf("reader: %w", err)
	}
	tsp = r.trace.Start("sic_cancel")
	sp = r.m.spanSICCancel.Start()
	s.clean = s.canc.CancelRange(s.clean, xTap, x, y, packetStart, hi)
	sp.End()
	tsp.End()
	return nil
}

// fit estimates s's combined channel from the preamble at preStart and
// convolves its reference over [lo, hi).
func (r *Reader) fit(s *Stream, x []complex128, preStart int, pn []complex128, lo, hi int) error {
	tsp := r.trace.Start("channel_estimate")
	sp := r.m.spanChanEst.Start()
	err := s.estimateHfbInto(r.cfg, x, s.clean, preStart, pn)
	sp.End()
	tsp.End()
	if err != nil {
		r.m.failChanEst.Inc()
		return err
	}
	s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, lo, hi)
	return nil
}

// frame is stage 4 of every decode: demap and Viterbi-decode the symbol
// estimates ests into a Result (see frameDecoder.decodeFrame for used,
// infoBits and sized). It returns the symbol count the frame occupied.
func (r *Reader) frame(s *Stream, ests []complex128, tcfg tag.Config, infoBits int, sized bool) (*Result, int) {
	tsp := r.trace.Start("viterbi")
	sp := r.m.spanViterbi.Start()
	payload, used, corrected, ok := s.fd.decodeFrame(ests, tcfg, len(ests), infoBits, sized)
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

// mrcInto fills s.ests[from:to) with the per-symbol MRC estimates
// (paper Eq. 7) from s's clean/ref buffers combined with those of the
// extra receive chains: each symbol's sums start from s's and add the
// other chains in order, so no extra chains is single-antenna MRC.
func (s *Stream) mrcInto(extra []Stream, symStart, sps, guard, from, to int) {
	for sym := from; sym < to; sym++ {
		a := symStart + sym*sps + guard
		b := symStart + (sym+1)*sps
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

// estimateHfbInto solves least squares for the combined channel using
// preamble samples where the PN chip is constant across the whole
// channel span (so y[n] = chip · (x⊛h_fb)[n] exactly), assembling the
// normal equations directly into reused scratch instead of
// materializing the convolution matrix. The solution lands in s.hfb.
// Taps agree with the dense reference fit (reference_test.go) to solver
// precision, not bit for bit.
func (s *Stream) estimateHfbInto(cfg Config, x, clean []complex128, preStart int, pn []complex128) error {
	L := cfg.ChannelTaps
	g := s.gram
	for i := range g.Data {
		g.Data[i] = 0
	}
	for i := range s.rhs {
		s.rhs[i] = 0
	}
	rows := 0
	for c, chip := range pn {
		chipStart := preStart + c*tag.ChipSamples
		cc := real(chip)*real(chip) + imag(chip)*imag(chip)
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			rows++
			// Row k of the design matrix is chip·x[n-k]; accumulate
			// AᴴA (upper triangle) and Aᴴb without building A.
			chipY := cmplx.Conj(chip) * clean[n]
			for k := 0; k < L; k++ {
				xk := x[n-k]
				cxk := cmplx.Conj(xk)
				s.rhs[k] += cxk * chipY
				row := g.Data[k*L:]
				for l := k; l < L; l++ {
					row[l] += complex(cc, 0) * cxk * x[n-l]
				}
			}
		}
	}
	if rows < 2*L {
		return fmt.Errorf("reader: only %d usable preamble samples for %d taps", rows, L)
	}
	for k := 0; k < L; k++ {
		for l := 0; l < k; l++ {
			g.Data[k*L+l] = cmplx.Conj(g.Data[l*L+k])
		}
	}
	copy(s.hfb, s.rhs)
	if err := linalg.SolveHermitianInPlace(g, s.hfb, cfg.Lambda); err != nil {
		return fmt.Errorf("reader: channel estimate: %w", err)
	}
	return nil
}
