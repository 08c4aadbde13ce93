package tag

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestFrameCRC8UndetectedErrorRate is the uplink frame check's theory
// oracle: a CRC-8 trailer passes a uniformly random corruption with
// probability 2⁻⁸, so over n corrupted frames the count that parse
// cleanly yet carry a payload other than the one sent must sit inside
// a binomial confidence interval around n/256. The simulator's
// PayloadOK also compares against the sent bytes, which hides these
// events; a real reader only has the CRC.
func TestFrameCRC8UndetectedErrorRate(t *testing.T) {
	const n = 200000
	r := rand.New(rand.NewSource(8))
	payload := make([]byte, 24)
	undetected := 0
	for i := 0; i < n; i++ {
		r.Read(payload)
		frame := BuildFrame(payload)
		// Corrupt the body and trailer with a uniformly random nonzero
		// pattern; the length header stays intact so every frame reaches
		// the CRC comparison.
		for {
			nonzero := false
			for k := frameHeaderBytes; k < len(frame); k++ {
				e := byte(r.Intn(256))
				frame[k] ^= e
				nonzero = nonzero || e != 0
			}
			if nonzero {
				break
			}
		}
		got, err := ParseFrame(frame)
		if err == nil && !bytes.Equal(got, payload) {
			undetected++
		}
	}
	p := 1.0 / 256
	mean := n * p
	sd := math.Sqrt(n * p * (1 - p))
	t.Logf("%d of %d corrupted frames passed CRC-8 (expected %.0f ± %.0f)", undetected, n, mean, sd)
	if math.Abs(float64(undetected)-mean) > 4.5*sd {
		t.Fatalf("undetected corruptions %d outside %.0f ± 4.5σ (σ=%.1f): CRC-8 is not behaving as a 2⁻⁸ check", undetected, mean, sd)
	}
}
