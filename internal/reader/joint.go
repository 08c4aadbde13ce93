package reader

import (
	"fmt"

	"backfi/internal/dsp"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// Joint successive cancellation of colliding tag reflections
// (DESIGN.md §5i). When the multi-tag MAC lights a whole group with
// one excitation, the AP receives the superposition of every group
// member's backscatter. Self-interference cancellation removes the
// excitation itself exactly as in the single-tag chain — training
// happens in the shared silent window, where no tag modulates — but
// what remains is a sum of reflections, each the excitation convolved
// with that tag's h_f⊛h_b and multiplied by its modulation sequence.
//
// DecodeJoint peels them off strongest-first, reusing the single-tag
// machinery per layer:
//
//  1. estimate every remaining tag's combined channel from its own PN
//     preamble (the PN sequences are nearly orthogonal, so each LS fit
//     latches onto its own reflection; the others average into the
//     noise floor),
//  2. decode the strongest reflection by MRC + Viterbi exactly as the
//     single-tag path does,
//  3. rebuild that tag's transmitted modulation — exact re-encode when
//     the CRC validated, hard symbol decisions otherwise — cancel
//     m̂[n]·(x⊛ĥ)[n] out of the residual, and
//  4. repeat on what is left.
//
// The cancellation reference deliberately uses the PREAMBLE-ONLY
// channel estimate. Refining ĥ against the reconstructed payload
// symbols looks attractive (far more LS rows) but is subtly wrong in a
// collision: the payload symbol sequences of different tags are not
// orthogonal — two tags reporting similar readings modulate nearly
// identical symbols — so the regressors m̂·x of the layer being fit
// correlate with the *other* layers' reflections, and the fit absorbs a
// fraction of their channels into ĥ. Cancelling with that biased
// estimate subtracts part of the weaker tags' own signal and caps the
// achievable cancellation depth near the inter-layer correlation
// (~10 dB for same-format payloads) no matter the SNR. The PN
// preambles are the one segment guaranteed pairwise-uncorrelated by
// construction, so the preamble fit is the one that stays unbiased.
//
// Timing search is skipped: group members are slot-synchronized by the
// protocol (they all wake on the same burst), so the nominal timing is
// shared and a per-layer search could tear the layers apart.
//
// The decode is windowed and runs in a pooled Stream, like the
// single-tag DecodeStream: one reusable canceller retrained on the
// silent window, self-interference reconstructed only over the packet
// window the caller passes (core.MultiTagLink slices the capture to the
// samples its longest member frame occupies), per-candidate references
// computed only over their preambles, and one frame decoder shared by
// every layer. Decisions match the full-capture algorithm it replaced,
// which survives as the test reference (joint_reference_test.go); the
// fast canceller and the normal-equation channel fit round differently,
// so numerics agree to solver precision, not bit for bit.

// JointResult is the outcome of jointly decoding one collided
// excitation.
type JointResult struct {
	// Tags holds each tag's decode, aligned with the cfgs argument. An
	// entry is nil only when its channel estimate was unusable (e.g. no
	// preamble room); failed CRCs still carry a Result with FrameOK
	// false.
	Tags []*Result
	// Order lists indices into cfgs in cancellation order — Order[0]
	// was the strongest reflection.
	Order []int
	// ResidualDBm[k] is the post-SIC residual power over the frame
	// window after cancelling Order[:k+1] — the joint-decode analogue
	// of the SIC report's residual, it should fall with every layer.
	ResidualDBm []float64
	// SIC is the (shared) self-interference cancellation report.
	SIC sic.Report
}

// DecodeJoint decodes every tag in cfgs from one received excitation
// in s's working memory. Arguments mirror DecodeStream; all tags share
// packetStart timing, and only [packetStart, packetStart+packetLen) is
// cancelled and searched. A returned JointResult never aliases s.
func (r *Reader) DecodeJoint(s *Stream, x, xTap, y []complex128, packetStart, packetLen int, cfgs []tag.Config) (*JointResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("reader: joint decode of zero tags")
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	packetEnd := packetStart + packetLen
	if err := checkCapture(x, xTap, [][]complex128{y}, packetStart, packetLen); err != nil {
		return nil, err
	}
	// Shared stage 1: one SIC train/cancel for the whole group.
	if err := r.retrain(s, x, xTap, y, packetStart, packetEnd); err != nil {
		return nil, err
	}

	preStart := packetStart + tag.SilentSamples
	jr := &JointResult{
		Tags:        make([]*Result, len(cfgs)),
		Order:       make([]int, 0, len(cfgs)),
		ResidualDBm: make([]float64, 0, len(cfgs)),
		SIC:         s.canc.Report(),
	}

	// A tag whose preamble does not fit the packet is dropped (its entry
	// stays nil) and counted once.
	pending := s.pending[:0]
	for i, c := range cfgs {
		if preStart+c.PreambleSamples() > packetEnd {
			r.m.failPreamble.Inc()
			continue
		}
		pending = append(pending, i)
	}
	for len(pending) > 0 {
		// Rank the pending reflections by estimated received energy over
		// their preamble windows. A failed preamble fit is dropped and
		// counted once: the fit's normal matrix depends only on the
		// excitation and the PN, never on the shrinking residual, so it
		// would fail again every round.
		best, bestE := -1, 0.0
		next := pending[:0]
		for _, i := range pending {
			tcfg := cfgs[i]
			pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
			preEnd := preStart + tcfg.PreambleSamples()
			if r.fit(s, x, preStart, pn, preStart, preEnd) != nil {
				continue
			}
			var e float64
			for _, v := range s.ref[preStart:preEnd] {
				e += real(v)*real(v) + imag(v)*imag(v)
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
		pending = next
		if best == -1 {
			break
		}

		tcfg := cfgs[best]
		s.ref = dsp.ConvolveRangeInto(s.ref, x, s.best, preStart, packetEnd)
		res, used := r.decodeLayer(s, packetEnd, preStart, tcfg)
		res.SIC = jr.SIC
		res.Hfb = append([]complex128(nil), s.best...)
		jr.Tags[best] = res
		jr.Order = append(jr.Order, best)
		s.cancelLayer(res, used, preStart, tcfg)
		jr.ResidualDBm = append(jr.ResidualDBm, residualDBm(s.clean, preStart, packetEnd))
	}
	s.pending = pending
	return jr, nil
}

// decodeLayer is stages 3–4 of the single-tag chain (MRC, the bounded
// header pass, Viterbi) against the stream's residual and reference, at
// nominal protocol timing. The second return is the symbol count the
// frame occupied — the cancellation bound when the CRC failed and the
// payload length is untrusted.
func (r *Reader) decodeLayer(s *Stream, packetEnd, preStart int, tcfg tag.Config) (*Result, int) {
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	preEnd := preStart + tcfg.PreambleSamples()
	preCorr := r.preambleCorrelation(s.clean, s.ref, preStart, pn)
	r.m.preambleCorr.Observe(preCorr)

	sps := tcfg.SamplesPerSymbol()
	nAvail := (packetEnd - preEnd) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		return &Result{PreambleCorr: preCorr}, 0
	}
	guard := min(r.cfg.ChannelTaps, sps/2)
	nHdr := min(headerSymbols(tcfg), nAvail)
	used, infoBits, sized := r.sizeFrame(s, nil, preEnd, sps, guard, nHdr, nAvail, tcfg)
	r.mrc(s, nil, preEnd, sps, guard, nHdr, used)
	res, used := r.frame(s, s.ests[:used], tcfg, infoBits, sized)
	res.PreambleCorr = preCorr
	return res, used
}

// cancelLayer subtracts a decoded layer's reflection m̂[n]·ref[n] from
// the stream's residual over the samples its frame occupied: the PN
// chips, then the payload symbols — exact when the CRC validated
// (re-encode), hard symbol decisions over the frame's symbols
// otherwise. s.ref must hold the layer's reference.
func (s *Stream) cancelLayer(res *Result, used, preStart int, tcfg tag.Config) {
	if res.FrameOK {
		s.fd.bits = tag.EncodeFrameBitsInto(s.fd.bits, res.Payload, tcfg.Coding, tcfg.Mod)
	} else {
		used = min(used, len(res.SymbolEstimates))
		s.fd.bits = tcfg.Mod.DemapHardInto(s.fd.bits, res.SymbolEstimates[:used])
	}
	s.fd.syms = tcfg.Mod.MapBitsInto(s.fd.syms, s.fd.bits)

	clean, ref := s.clean, s.ref
	n := preStart
	for _, chip := range tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips) {
		for k := 0; k < tag.ChipSamples && n < len(clean); k++ {
			clean[n] -= chip * ref[n]
			n++
		}
	}
	sps := tcfg.SamplesPerSymbol()
	for _, sym := range s.fd.syms {
		for k := 0; k < sps && n < len(clean); k++ {
			clean[n] -= sym * ref[n]
			n++
		}
	}
}

// residualDBm is the power of the remaining signal over the tag frame
// window, in dBm.
func residualDBm(clean []complex128, lo, hi int) float64 {
	if hi > len(clean) {
		hi = len(clean)
	}
	if lo >= hi {
		return dsp.DBm(0)
	}
	return dsp.DBm(dsp.Power(clean[lo:hi]))
}
