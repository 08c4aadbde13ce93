package reader

import (
	"fmt"
	"math/cmplx"

	"backfi/internal/dsp"
	"backfi/internal/sic"
	"backfi/internal/tag"
)

// MultiResult extends Result with per-antenna diagnostics.
type MultiResult struct {
	Result
	// PerAntennaSIC reports each receive chain's cancellation.
	PerAntennaSIC []sic.Report
	// PerAntennaSNRdB is each antenna's standalone post-MRC symbol SNR
	// (diagnostic; the payload is decoded from the joint combine).
	PerAntennaSNRdB []float64
}

// DecodeMulti decodes one tag transmission received on multiple AP
// antennas — the paper's Sec. 7 extension. Each receive chain runs its
// own self-interference cancellation and combined-channel estimate;
// the per-symbol MRC then combines across time *and* antennas,
// providing spatial diversity gain on top of the temporal gain.
//
// ys[i] is antenna i's received stream, aligned with x.
func (r *Reader) DecodeMulti(x, xTap []complex128, ys [][]complex128, packetStart, packetLen int, tcfg tag.Config) (*MultiResult, error) {
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
	out := &MultiResult{}
	for i, y := range ys {
		if len(y) != len(x) {
			return nil, fmt.Errorf("reader: antenna %d length %d vs %d", i, len(y), len(x))
		}
		canc, err := sic.Train(r.cfg.SIC, xTap, x, y, packetStart, packetStart+tag.SilentSamples)
		if err != nil {
			return nil, fmt.Errorf("reader: antenna %d: %w", i, err)
		}
		clean := canc.Cancel(xTap, x, y)
		hfb, err := r.estimateHfb(x, clean, preStart, pn)
		if err != nil {
			return nil, fmt.Errorf("reader: antenna %d: %w", i, err)
		}
		cleans[i] = clean
		refs[i] = dsp.ConvolveSame(x, hfb)
		out.PerAntennaSIC = append(out.PerAntennaSIC, canc.Report())
		if i == 0 {
			// Symbol timing from the first chain's PN matched filter
			// (the tag's clock is common to all antennas), with
			// channel re-estimation at the winner, as in Decode.
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
			// Re-estimate this chain at the corrected timing.
			if h2, err := r.estimateHfb(x, clean, preStart, pn); err == nil {
				refs[i] = dsp.ConvolveSame(x, h2)
			}
		}
	}

	// Joint per-symbol MRC across antennas.
	sps := tcfg.SamplesPerSymbol()
	guard := r.cfg.ChannelTaps
	if guard > sps/2 {
		guard = sps / 2
	}
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

	payload, used, corrected, frameOK := new(frameDecoder).decodeFrame(ests, tcfg)
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
