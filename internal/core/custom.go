package core

import (
	"fmt"
	"math"

	"backfi/internal/dsp"
	"backfi/internal/reader"
	"backfi/internal/tag"
)

// RunCustomExcitation performs one exchange with tag 0 using a
// caller-supplied excitation waveform instead of WiFi PPDUs — the
// paper's generality claim (Sec. 1: "the system is applicable for
// other types of communication signals like Bluetooth, Zigbee, etc.").
// The waveform
// should be at unit average power; it is scaled to the scenario's
// transmit power and prefixed with the tag's wake preamble. The
// exchange then runs the same pipeline as RunPacket: the reader's
// cancellation, channel estimation, and MRC only require that the AP
// knows its own transmission.
//
// The excitation must be long enough for the silent period, the tag
// preamble, and the payload symbols at the tag's configuration.
func (l *Link) RunCustomExcitation(excitation []complex128, payload []byte) (*PacketResult, error) {
	if need := tagNeed(l.Tag.Cfg, len(payload)); len(excitation) < need {
		return nil, fmt.Errorf("core: excitation of %d samples, need ≥ %d for this payload", len(excitation), need)
	}
	amp := math.Sqrt(l.Scenario.TxPowerW())
	wake := tag.WakeWaveform(l.Tag.WakeSeq(), amp)
	x := append(append([]complex128{}, wake...), dsp.Scale(excitation, complex(amp, 0))...)
	res, err := l.exchange(reader.NewExcitation(x), len(wake), []int{0}, [][]byte{payload}, false)
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}
