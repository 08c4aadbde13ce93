package core

import (
	"fmt"
	"math/rand"

	"backfi/internal/channel"
	"backfi/internal/dsp"
	"backfi/internal/reader"
	"backfi/internal/tag"
	"backfi/internal/wifi"
)

// MIMOLink is a BackFi link with multiple AP receive antennas (paper
// Sec. 7: "multiple antennas at the AP provides additional diversity
// combining gain"). Each antenna runs self-interference cancellation
// against the shared transmission — the paper's per-antenna silent
// slot requirement is satisfied by the single shared silent period,
// since only one antenna transmits.
type MIMOLink struct {
	Cfg      LinkConfig
	NumRx    int
	Scenario *channel.MIMOScenario
	Tag      *tag.Tag
	rdr      *reader.Reader
	rng      *rand.Rand
	rate     wifi.Rate
}

// NewMIMOLink draws a placement with nrx receive antennas.
func NewMIMOLink(cfg LinkConfig, nrx int) (*MIMOLink, error) {
	if nrx < 1 {
		return nil, fmt.Errorf("core: need at least one receive antenna")
	}
	base, err := NewLink(cfg) // validates everything
	if err != nil {
		return nil, err
	}
	sc, err := channel.NewMIMOScenario(cfg.Channel, nrx, base.rng)
	if err != nil {
		return nil, err
	}
	return &MIMOLink{
		Cfg:      cfg,
		NumRx:    nrx,
		Scenario: sc,
		Tag:      base.Tag,
		rdr:      &base.rdr,
		rng:      base.rng,
		rate:     base.rate,
	}, nil
}

// MIMOPacketResult reports one multi-antenna exchange.
type MIMOPacketResult struct {
	Decode    *reader.MultiResult
	Sent      []byte
	PayloadOK bool
	// JointSNRdB is the cross-antenna combined symbol SNR;
	// PerAntennaSNRdB are the standalone chains.
	JointSNRdB      float64
	PerAntennaSNRdB []float64
}

// RunPacket performs one exchange over all antennas.
func (l *MIMOLink) RunPacket(payload []byte) (*MIMOPacketResult, error) {
	need := tag.SilentSamples + l.Tag.Cfg.PreambleSamples() +
		tag.SymbolsForPayload(len(payload), l.Tag.Cfg.Coding, l.Tag.Cfg.Mod)*l.Tag.Cfg.SamplesPerSymbol()
	ppduLen := wifi.PPDULen(l.Cfg.WiFiPSDUBytes, l.rate)
	nppdu := (need + ppduLen - 1) / ppduLen
	if nppdu < 1 {
		nppdu = 1
	}

	txW := dsp.UnDBm(l.Scenario.Cfg.TxPowerDBm)
	x, packetStart, err := buildExcitation(l.rate, l.Cfg.WiFiPSDUBytes, txW, l.Tag, nppdu)
	if err != nil {
		return nil, err
	}
	packetLen := len(x) - packetStart

	xAir := l.Scenario.Distortion.Apply(x)
	z := l.Scenario.HF.Apply(xAir)
	if _, ok := l.Tag.TryWake(z[:packetStart+tag.SilentSamples]); !ok {
		return nil, ErrTagNoWake
	}
	m, plan, err := l.Tag.ModulationSequence(packetLen, payload)
	if err != nil {
		return nil, err
	}
	mFull := make([]complex128, len(x))
	copy(mFull[packetStart:], m)
	reflected := tag.Backscatter(z, mFull)

	ys := make([][]complex128, l.NumRx)
	for i := 0; i < l.NumRx; i++ {
		ys[i] = l.Scenario.Noise.Add(dsp.Add(l.Scenario.HEnv[i].Apply(xAir), l.Scenario.HB[i].Apply(reflected)))
	}

	res, err := l.rdr.DecodeMulti(x, xAir, ys, packetStart, packetLen, l.Tag.Cfg)
	if err != nil {
		return nil, err
	}
	_ = plan
	return &MIMOPacketResult{
		Decode:          res,
		Sent:            payload,
		PayloadOK:       res.FrameOK && bytesEqual(res.Payload, payload),
		JointSNRdB:      res.SNRdB,
		PerAntennaSNRdB: res.PerAntennaSNRdB,
	}, nil
}

// RandomPayload draws a payload from the link's RNG.
func (l *MIMOLink) RandomPayload(n int) []byte {
	p := make([]byte, n)
	l.rng.Read(p)
	return p
}
