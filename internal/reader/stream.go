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

// Stream is the working memory of the windowed decoders — the
// single-tag Reader.DecodeStream and the multi-tag Reader.DecodeJoint:
//
//   - a sic.Reusable canceller retrained every frame with no
//     steady-state allocation;
//   - clean/reference/estimate buffers;
//   - normal-equation scratch for the combined-channel estimate;
//   - the FEC stage's demap, depuncture and Viterbi survivor buffers.
//
// Decoding is windowed: instead of cancelling and correlating over the
// whole capture, it processes [packetStart, header) first, reads the
// frame length from a bounded Viterbi pass, and extends the window to
// exactly the samples the frame occupies.
//
// A Stream carries nothing from one decode to the next but buffer
// capacity, so callers pool it process-wide; the zero value is ready.
// Results are deterministic for identical inputs but NOT bit-identical
// to Reader.Decode, the reference decoder: the fast canceller
// assembles its normal equations in a different summation order, and
// symbol estimates stop at the frame boundary instead of covering the
// tag's post-frame silence (Result.SymbolEstimates holds only the
// frame's symbols). A returned Result never aliases the Stream. Not
// safe for concurrent use.
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

// DecodeStream processes one excitation packet with the same stage
// structure and arguments as Decode, in s's working memory.
func (r *Reader) DecodeStream(s *Stream, x, xTap, y []complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	s.configure(r.cfg)
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	if len(x) != len(y) || len(xTap) != len(y) {
		return nil, fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(x), len(xTap), len(y))
	}
	if packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}

	// Stage 1: retrain the reusable canceller on the silent window.
	tr := r.trace
	s.canc.SetTrace(tr)
	tspTrain := tr.Start("sic_train")
	spTrain := r.m.spanSICTrain.Start()
	err := s.canc.Retrain(xTap, x, y, packetStart, packetStart+tag.SilentSamples)
	spTrain.End()
	tspTrain.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return nil, fmt.Errorf("reader: %w", err)
	}

	preStart := packetStart + tag.SilentSamples
	preEnd := preStart + tcfg.PreambleSamples()
	packetEnd := packetStart + packetLen
	if preEnd > packetEnd {
		r.m.failPreamble.Inc()
		return nil, fmt.Errorf("reader: packet too short for tag preamble")
	}

	// Initial window: silent + preamble + timing slack + enough payload
	// symbols for the bounded header pass.
	sps := tcfg.SamplesPerSymbol()
	bps := tcfg.Mod.BitsPerSymbol()
	headerSoft := fec.PuncturedLength(2*(16+headerGuardSteps), tcfg.Coding)
	headerSyms := (headerSoft + bps - 1) / bps
	hi := preEnd + r.cfg.TimingSearch + headerSyms*sps
	if hi > packetEnd {
		hi = packetEnd
	}
	tspCancel := tr.Start("sic_cancel")
	spCancel := r.m.spanSICCancel.Start()
	s.clean = s.canc.CancelRange(s.clean, xTap, x, y, packetStart, hi)
	spCancel.End()
	tspCancel.End()

	// Stage 2: channel estimation + timing, windowed.
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	tspEst := tr.Start("channel_estimate")
	spEst := r.m.spanChanEst.Start()
	err = s.estimateHfbInto(r.cfg, x, s.clean, preStart, pn)
	spEst.End()
	tspEst.End()
	if err != nil {
		r.m.failChanEst.Inc()
		return nil, err
	}
	s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, packetStart, hi)

	tspTiming := tr.Start("timing_search")
	spTiming := r.m.spanTiming.Start()
	offset := 0
	for pass := 0; pass < 3; pass++ {
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

	// Stage 3a: MRC over just the header symbols.
	symStart := preEnd
	guard := min(r.cfg.ChannelTaps, sps/2)
	nAvail := (packetEnd - symStart) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		return nil, fmt.Errorf("reader: no room for payload symbols")
	}
	nHdr := min(headerSyms, nAvail)
	tspMRC := tr.Start("mrc")
	spMRC := r.m.spanMRC.Start()
	if cap(s.ests) < nAvail {
		s.ests = make([]complex128, nAvail)
	}
	s.mrcInto(symStart, sps, guard, 0, nHdr)
	spMRC.End()
	tspMRC.End()

	// Stage 3b: bounded header pass → frame extent.
	tspVit := tr.Start("viterbi")
	spVit := r.m.spanViterbi.Start()
	used, infoBits, headerOK := s.fd.frameExtent(s.ests[:nHdr], tcfg)
	spVit.End()
	tspVit.End()
	nSyms := used
	if !headerOK || used > nAvail {
		// A frame we cannot size (noise, or a length header pointing past
		// the packet). Fall back to the legacy whole-capture behavior so
		// failures are diagnosed identically: process everything and let
		// decodeFrame report the failure.
		nSyms = nAvail
	}

	// Extend the processing window to exactly the frame's samples.
	hi2 := symStart + nSyms*sps
	if hi2 > hi {
		tspCancel := tr.Start("sic_cancel")
		spCancel := r.m.spanSICCancel.Start()
		s.clean = s.canc.CancelRange(s.clean, xTap, x, y, hi, hi2)
		s.ref = dsp.ConvolveRangeInto(s.ref, x, s.hfb, hi, hi2)
		spCancel.End()
		tspCancel.End()
	}
	tspMRC = tr.Start("mrc")
	spMRC = r.m.spanMRC.Start()
	s.mrcInto(symStart, sps, guard, nHdr, nSyms)
	spMRC.End()
	tspMRC.End()
	ests := s.ests[:nSyms]

	// Stage 4: terminated decode over the frame symbols.
	tspVit = tr.Start("viterbi")
	spVit = r.m.spanViterbi.Start()
	var payload []byte
	var corrected int
	frameOK := false
	if headerOK && used <= nAvail {
		s.fd.soft = tcfg.Mod.DemapSoftInto(s.fd.soft, ests)
		frameSoft := s.fd.soft[:used*bps]
		if p, err := tag.DecodeFrameBits(&s.fd.vit, frameSoft, tcfg.Coding, infoBits); err == nil {
			payload = p
			corrected = s.fd.correctedBits(frameSoft, payload, tcfg)
			frameOK = true
		}
	} else {
		payload, used, corrected, frameOK = s.fd.decodeFrame(ests, tcfg)
	}
	spVit.End()
	tspVit.End()
	if frameOK {
		r.m.viterbiBits.Observe(float64(corrected))
	} else {
		r.m.failFrameCRC.Inc()
	}

	res := &Result{
		Payload:              payload,
		FrameOK:              frameOK,
		SymbolEstimates:      append([]complex128(nil), ests...),
		SIC:                  s.canc.Report(),
		Hfb:                  append([]complex128(nil), s.hfb...),
		PreambleCorr:         preCorr,
		TimingOffset:         offset,
		ViterbiCorrectedBits: corrected,
	}
	res.SNRdB = s.fd.symbolSNRdB(ests[:min(used, len(ests))], tcfg.Mod)
	return res, nil
}

// mrcInto fills s.ests[from:to) with the per-symbol MRC estimates
// (paper Eq. 7) from the stream's clean/ref buffers.
func (s *Stream) mrcInto(symStart, sps, guard, from, to int) {
	clean, ref := s.clean, s.ref
	for sym := from; sym < to; sym++ {
		a := symStart + sym*sps + guard
		b := symStart + (sym+1)*sps
		var num complex128
		var den float64
		for n := a; n < b; n++ {
			num += clean[n] * cmplx.Conj(ref[n])
			den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
		}
		if den > 0 {
			s.ests[sym] = num / complex(den, 0)
		} else {
			s.ests[sym] = 0
		}
	}
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

// estimateHfbInto solves the same preamble least-squares problem as
// estimateHfb, assembling the normal equations directly into reused
// scratch instead of materializing the convolution matrix. The
// solution lands in s.hfb. Sum order differs from the legacy
// estimator, so taps agree to solver precision, not bit-for-bit.
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
