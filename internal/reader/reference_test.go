package reader

import (
	"fmt"
	"math"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/linalg"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// Full-capture reference decoders. The windowed, pooled Decode
// replaced them in the pipeline; they stay here, in their original
// form, as what the windowed decoder is held to. Their canceller is a sic.Reusable trained on the silent window
// and cancelling the whole capture, which sic's own tests pin to the
// dense reference canceller.

// cancelFull trains a canceller on the silent window after packetStart
// and cancels the whole capture with it.
func cancelFull(cfg sic.Config, xTap, x, y []complex128, packetStart int) (*sic.Reusable, []complex128, error) {
	canc, err := sic.NewReusable(cfg)
	if err != nil {
		return nil, nil, err
	}
	stop := packetStart + tag.SilentSamples
	if _, err := canc.Retrain(nil, xTap, x, linalg.ToeplitzFactor(x, cfg.DigitalTaps, packetStart, stop, cfg.Lambda), y, packetStart, stop); err != nil {
		return nil, nil, err
	}
	return canc, canc.CancelRange(nil, xTap, x, y, 0, len(y)), nil
}

// symbolSNRdB estimates post-MRC SNR from decision errors.
func symbolSNRdB(ests []complex128, mod tag.Modulation) float64 {
	return new(frameDecoder).symbolSNRdB(ests, mod)
}

// decodeFull is the full-capture single-tag decoder Decode replaced,
// kept as the reference the windowed decoder is held to. It processes
// one excitation packet:
//
//	x           — the ideal transmitted samples (wake + PPDU), known to the AP
//	xTap        — the PA-output copy wired into the analog canceller
//	              (carries transmit distortion; pass x for ideal hardware)
//	y           — the received samples, same indexing as x
//	packetStart — index where the excitation PPDU (and tag timing) begins
//	packetLen   — PPDU length in samples
//	tcfg        — the tag's negotiated configuration
//
// The tag is silent for tag.SilentSamples after packetStart, sends its
// PN preamble, then payload symbols (tag.TxPlan layout).
func (r *Reader) decodeFull(x, xTap, y []complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	if len(x) != len(y) || len(xTap) != len(y) {
		return nil, fmt.Errorf("reader: x/xTap/y length mismatch %d/%d/%d", len(x), len(xTap), len(y))
	}
	if packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}

	// Stage 1: self-interference cancellation, trained on the silent
	// window (the tag backscatters nothing there).
	tspTrain := r.trace.Start("sic_train")
	spTrain := r.m.spanSICTrain.Start()
	canc, clean, err := cancelFull(r.cfg.SIC, xTap, x, y, packetStart)
	spTrain.End()
	tspTrain.End()
	if err != nil {
		r.m.failSICTrain.Inc()
		return nil, fmt.Errorf("reader: %w", err)
	}

	// Stage 2: combined-channel estimation from the tag preamble.
	preStart := packetStart + tag.SilentSamples
	preEnd := preStart + tcfg.PreambleSamples()
	if preEnd > packetStart+packetLen {
		r.m.failPreamble.Inc()
		return nil, fmt.Errorf("reader: packet too short for tag preamble")
	}
	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	tspEst := r.trace.Start("channel_estimate")
	spEst := r.m.spanChanEst.Start()
	hfb, err := r.estimateHfb(x, clean, preStart, pn)
	spEst.End()
	tspEst.End()
	if err != nil {
		r.m.failChanEst.Inc()
		return nil, err
	}

	// Reference signal: what the backscatter looks like for unit
	// modulation. The buffer is reused when the timing search below
	// re-estimates the channel.
	ref := dsp.ConvolveSameInto(nil, x, hfb)

	// Symbol timing: search around the nominal position using the PN
	// matched filter, re-estimating the channel at each winner until
	// the grid settles (a badly misaligned first estimate flattens the
	// metric, so one pass can stop short of the true offset).
	tspTiming := r.trace.Start("timing_search")
	spTiming := r.m.spanTiming.Start()
	offset := 0
	for pass := 0; pass < 3; pass++ {
		step := r.searchTiming(clean, ref, preStart, pn)
		if step == 0 {
			break
		}
		offset += step
		preStart += step
		preEnd += step
		if h2, err := r.estimateHfb(x, clean, preStart, pn); err == nil {
			hfb = h2
			ref = dsp.ConvolveSameInto(ref, x, hfb)
		}
	}
	spTiming.End()
	tspTiming.End()
	if offset != 0 {
		r.m.timingAdjusted.Inc()
	}
	r.m.timingOffset.Observe(math.Abs(float64(offset)))

	// Preamble sanity: chip-wise MRC against the known PN.
	preCorr := r.preambleCorrelation(clean, ref, preStart, pn)
	r.m.preambleCorr.Observe(preCorr)

	// Stage 3: per-symbol MRC (paper Eq. 7).
	tspMRC := r.trace.Start("mrc")
	spMRC := r.m.spanMRC.Start()
	symStart := preEnd
	sps := tcfg.SamplesPerSymbol()
	guard := r.cfg.ChannelTaps
	if guard > sps/2 {
		guard = sps / 2
	}
	nAvail := (packetStart + packetLen - symStart) / sps
	if nAvail <= 0 {
		r.m.failPayload.Inc()
		return nil, fmt.Errorf("reader: no room for payload symbols")
	}
	ests := make([]complex128, nAvail)
	for s := 0; s < nAvail; s++ {
		a := symStart + s*sps + guard
		b := symStart + (s+1)*sps
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

	// Stage 4: demap, Viterbi, deframe. The frame's own length header
	// tells us where the payload symbols end; symbols after the frame
	// are the tag's post-frame silence and are discarded by the
	// length-aware decode.
	tspVit := r.trace.Start("viterbi")
	spVit := r.m.spanViterbi.Start()
	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg, 0, false)
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
		SIC:                  canc.Report(),
		Hfb:                  hfb,
		PreambleCorr:         preCorr,
		TimingOffset:         offset,
		ViterbiCorrectedBits: corrected,
	}
	res.SNRdB = symbolSNRdB(ests[:used], tcfg.Mod)
	return res, nil
}

// estimateHfb is the dense reference of estimateHfbInto: it solves least squares for the combined channel using
// preamble samples where the PN chip is constant across the whole
// channel span (so y[n] = chip · (x⊛h_fb)[n] exactly).
func (r *Reader) estimateHfb(x, clean []complex128, preStart int, pn []complex128) ([]complex128, error) {
	L := r.cfg.ChannelTaps
	var rows []int
	for c := range pn {
		chipStart := preStart + c*tag.ChipSamples
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			rows = append(rows, n)
		}
	}
	if len(rows) < 2*L {
		return nil, fmt.Errorf("reader: only %d usable preamble samples for %d taps", len(rows), L)
	}
	a := linalg.NewMatrix(len(rows), L)
	b := make([]complex128, len(rows))
	for ri, n := range rows {
		chip := pn[(n-preStart)/tag.ChipSamples]
		for k := 0; k < L; k++ {
			if idx := n - k; idx >= 0 {
				a.Set(ri, k, chip*x[idx])
			}
		}
		b[ri] = clean[n]
	}
	hfb, err := linalg.LeastSquares(a, b, r.cfg.Lambda)
	if err != nil {
		return nil, fmt.Errorf("reader: channel estimate: %w", err)
	}
	return hfb, nil
}

// decodeMultiReference is the full-capture multi-antenna decoder the
// multi-chain Decode replaced: every chain cancelled and
// referenced over the whole capture, timing from chain 0, the other
// chains re-fitted at the corrected timing, and MRC across antennas
// over every symbol the packet holds.
func decodeMultiReference(r *Reader, x, xTap []complex128, ys [][]complex128, packetStart, packetLen int, tcfg tag.Config) (*Result, error) {
	if err := tcfg.Validate(); err != nil {
		return nil, err
	}
	if len(ys) == 0 {
		return nil, fmt.Errorf("reader: no receive antennas")
	}
	preStart := packetStart + tag.SilentSamples
	preEnd := preStart + tcfg.PreambleSamples()
	if preEnd > packetStart+packetLen {
		return nil, fmt.Errorf("reader: packet too short for tag preamble")
	}
	if packetStart+packetLen > len(x) {
		return nil, fmt.Errorf("reader: packet [%d,%d) exceeds %d samples", packetStart, packetStart+packetLen, len(x))
	}

	pn := tag.PreambleSequence(tcfg.ID, tcfg.PreambleChips)
	cleans := make([][]complex128, len(ys))
	refs := make([][]complex128, len(ys))
	out := &Result{}
	for i, y := range ys {
		if len(y) != len(x) {
			return nil, fmt.Errorf("reader: antenna %d length %d vs %d", i, len(y), len(x))
		}
		canc, clean, err := cancelFull(r.cfg.SIC, xTap, x, y, packetStart)
		if err != nil {
			return nil, fmt.Errorf("reader: antenna %d: %w", i, err)
		}
		hfb, err := r.estimateHfb(x, clean, preStart, pn)
		if err != nil {
			return nil, fmt.Errorf("reader: antenna %d: %w", i, err)
		}
		cleans[i] = clean
		refs[i] = dsp.ConvolveSame(x, hfb)
		out.PerAntennaSIC = append(out.PerAntennaSIC, canc.Report())
		if i == 0 {
			for pass := 0; pass < 3; pass++ {
				step := r.searchTiming(clean, refs[0], preStart, pn)
				if step == 0 {
					break
				}
				out.TimingOffset += step
				preStart += step
				preEnd += step
				if h2, err := r.estimateHfb(x, clean, preStart, pn); err == nil {
					hfb = h2
					refs[0] = dsp.ConvolveSame(x, hfb)
				}
			}
			out.Hfb = hfb
			out.SIC = canc.Report()
			out.PreambleCorr = r.preambleCorrelation(clean, refs[0], preStart, pn)
		} else if out.TimingOffset != 0 {
			if h2, err := r.estimateHfb(x, clean, preStart, pn); err == nil {
				refs[i] = dsp.ConvolveSame(x, h2)
			}
		}
	}

	sps := tcfg.SamplesPerSymbol()
	guard := min(r.cfg.ChannelTaps, sps/2)
	symStart := preEnd
	nAvail := (packetStart + packetLen - symStart) / sps
	if nAvail <= 0 {
		return nil, fmt.Errorf("reader: no room for payload symbols")
	}
	ests := make([]complex128, nAvail)
	perAnt := make([][]complex128, len(ys))
	for i := range perAnt {
		perAnt[i] = make([]complex128, nAvail)
	}
	for s := 0; s < nAvail; s++ {
		a := symStart + s*sps + guard
		b := symStart + (s+1)*sps
		var num complex128
		var den float64
		for i := range ys {
			var ni complex128
			var di float64
			for n := a; n < b; n++ {
				ni += cleans[i][n] * cmplx.Conj(refs[i][n])
				di += real(refs[i][n])*real(refs[i][n]) + imag(refs[i][n])*imag(refs[i][n])
			}
			num += ni
			den += di
			if di > 0 {
				perAnt[i][s] = ni / complex(di, 0)
			}
		}
		if den > 0 {
			ests[s] = num / complex(den, 0)
		}
	}

	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg, 0, false)
	out.Payload = payload
	out.FrameOK = frameOK
	out.ViterbiCorrectedBits = corrected
	out.SymbolEstimates = ests
	out.SNRdB = symbolSNRdB(ests[:used], tcfg.Mod)
	for i := range perAnt {
		out.PerAntennaSNRdB = append(out.PerAntennaSNRdB, symbolSNRdB(perAnt[i][:used], tcfg.Mod))
	}
	return out, nil
}
