package reader

import (
	"fmt"
	"math/cmplx"

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

// DecodeJoint decodes every tag in cfgs from one received excitation.
// Arguments mirror Decode; all tags share packetStart timing.
func (r *Reader) DecodeJoint(x, xTap, y []complex128, packetStart, packetLen int, cfgs []tag.Config) (*JointResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("reader: joint decode of zero tags")
	}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	if len(x) != len(y) || len(xTap) != len(y) {
		return nil, fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(x), len(xTap), len(y))
	}
	if packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}

	// Shared stage 1: one SIC train/cancel for the whole group.
	tspTrain := r.trace.Start("sic_train")
	spTrain := r.m.spanSICTrain.Start()
	canc, err := sic.Train(r.cfg.SIC, xTap, x, y, packetStart, packetStart+tag.SilentSamples)
	spTrain.End()
	tspTrain.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return nil, fmt.Errorf("reader: %w", err)
	}
	tspCancel := r.trace.Start("sic_cancel")
	spCancel := r.m.spanSICCancel.Start()
	clean := canc.Cancel(xTap, x, y)
	spCancel.End()
	tspCancel.End()

	preStart := packetStart + tag.SilentSamples
	jr := &JointResult{Tags: make([]*Result, len(cfgs)), SIC: canc.Report()}

	remaining := make([]int, 0, len(cfgs))
	for i := range cfgs {
		remaining = append(remaining, i)
	}
	for len(remaining) > 0 {
		// Rank the remaining reflections by estimated received energy
		// over their preamble windows.
		best, bestE := -1, 0.0
		var bestHfb, bestRef []complex128
		next := remaining[:0]
		for _, i := range remaining {
			tcfg := cfgs[i]
			if preStart+tcfg.PreambleSamples() > packetStart+packetLen {
				r.m.failPreamble.Inc()
				next = append(next, i) // skipped permanently below
				continue
			}
			pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
			tspEst := r.trace.Start("channel_estimate")
			spEst := r.m.spanChanEst.Start()
			hfb, err := r.estimateHfb(x, clean, preStart, pn)
			spEst.End()
			tspEst.End()
			if err != nil {
				r.m.failChanEst.Inc()
				next = append(next, i)
				continue
			}
			ref := dsp.ConvolveSameInto(nil, x, hfb)
			var e float64
			for n := preStart; n < preStart+tcfg.PreambleSamples(); n++ {
				e += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
			}
			if best == -1 || e > bestE {
				if best != -1 {
					next = append(next, best)
				}
				best, bestE, bestHfb, bestRef = i, e, hfb, ref
			} else {
				next = append(next, i)
			}
		}
		if best == -1 {
			// Nothing estimable this round; the survivors never will be
			// (the residual only shrinks). Leave their entries nil.
			break
		}
		remaining = next

		tcfg := cfgs[best]
		res, used := r.decodeLayer(clean, bestRef, packetStart, packetLen, preStart, tcfg)
		res.SIC = jr.SIC
		res.Hfb = bestHfb
		jr.Tags[best] = res
		jr.Order = append(jr.Order, best)

		if len(remaining) > 0 {
			mseq, frameEnd := reconstructModulation(res, used, preStart, tcfg)
			for n := preStart; n < frameEnd && n < len(clean); n++ {
				clean[n] -= mseq[n-preStart] * bestRef[n]
			}
		}
		jr.ResidualDBm = append(jr.ResidualDBm, residualDBm(clean, preStart, packetStart+packetLen))
	}
	return jr, nil
}

// decodeLayer is stages 3–4 of the single-tag chain (MRC + Viterbi)
// against the current residual, at nominal protocol timing. The second
// return is the symbol count the frame occupied — the cancellation
// bound when the CRC failed and the payload length is untrusted.
func (r *Reader) decodeLayer(clean, ref []complex128, packetStart, packetLen, preStart int, tcfg tag.Config) (*Result, int) {
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	preEnd := preStart + tcfg.PreambleSamples()
	preCorr := r.preambleCorrelation(clean, ref, preStart, pn)
	r.m.preambleCorr.Observe(preCorr)

	tspMRC := r.trace.Start("mrc")
	spMRC := r.m.spanMRC.Start()
	sps := tcfg.SamplesPerSymbol()
	guard := r.cfg.ChannelTaps
	if guard > sps/2 {
		guard = sps / 2
	}
	nAvail := (packetStart + packetLen - preEnd) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		spMRC.End()
		tspMRC.End()
		return &Result{PreambleCorr: preCorr}, 0
	}
	ests := make([]complex128, nAvail)
	for s := 0; s < nAvail; s++ {
		a := preEnd + s*sps + guard
		b := preEnd + (s+1)*sps
		var num complex128
		var den float64
		for n := a; n < b; n++ {
			num += clean[n] * cmplx.Conj(ref[n])
			den += real(ref[n])*real(ref[n]) + imag(ref[n])*imag(ref[n])
		}
		if den > 0 {
			ests[s] = num / complex(den, 0)
		}
	}
	spMRC.End()
	tspMRC.End()

	tspVit := r.trace.Start("viterbi")
	spVit := r.m.spanViterbi.Start()
	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg)
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
		SymbolEstimates:      ests,
		PreambleCorr:         preCorr,
		ViterbiCorrectedBits: corrected,
	}
	res.SNRdB = symbolSNRdB(ests[:used], tcfg.Mod)
	return res, used
}

// reconstructModulation rebuilds the per-sample modulation m̂[n] the
// decoded tag transmitted over [preStart, frameEnd): PN chips, then
// payload symbols — exact when the CRC validated (re-encode), hard
// symbol decisions over the frame's symbols otherwise.
func reconstructModulation(res *Result, used, preStart int, tcfg tag.Config) ([]complex128, int) {
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	sps := tcfg.SamplesPerSymbol()
	var symbols []complex128
	if res.FrameOK {
		coded := tag.EncodeFrameBits(res.Payload, tcfg.Coding, tcfg.Mod)
		symbols = tcfg.Mod.MapBits(coded)
	} else {
		if used > len(res.SymbolEstimates) {
			used = len(res.SymbolEstimates)
		}
		hard := tcfg.Mod.DemapHard(res.SymbolEstimates[:used])
		symbols = tcfg.Mod.MapBits(hard)
	}
	n := tcfg.PreambleSamples() + len(symbols)*sps
	mseq := make([]complex128, n)
	for c, chip := range pn {
		for k := 0; k < tag.ChipSamples; k++ {
			mseq[c*tag.ChipSamples+k] = chip
		}
	}
	off := tcfg.PreambleSamples()
	for s, sym := range symbols {
		for k := 0; k < sps; k++ {
			mseq[off+s*sps+k] = sym
		}
	}
	return mseq, preStart + n
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
