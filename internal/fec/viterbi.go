package fec

import (
	"fmt"
	"math"
)

// butterflySign[j] holds the expected output bits (A, B) of the
// transition from state 2j on input 0, one bit each (bit 0 = A,
// bit 1 = B; a set bit means the coded bit is 1, soft sign −1).
//
// The trellis of the (133,171) code is made of 32 butterflies:
// states 2j and 2j+1 both feed states j (input 0) and j+32 (input 1).
// Both generators tap the input bit and the oldest register bit, so
// flipping either one negates both expected outputs: the four branches
// of a butterfly share one pair of signs, two with each polarity.
var butterflySign = buildButterflySigns()

func buildButterflySigns() (out [NumStates / 2]uint8) {
	for j := range out {
		window := uint32(2 * j)
		out[j] = parity(window&G0) | parity(window&G1)<<1
	}
	return out
}

// Viterbi is the working memory of the soft-decision decoder of the
// rate-1/2 mother code. The zero value is ready; a Viterbi reused
// across decodes stops allocating once its buffers have grown to the
// longest stream seen. Not safe for concurrent use.
type Viterbi struct {
	// surv[t] packs the survivor decisions of step t: bit s is set when
	// the survivor entering state s came from the odd predecessor
	// ((s<<1)&63 | 1) rather than the even one.
	surv   []uint64
	bits   []byte
	mother []float64
}

// ViterbiDecode performs maximum-likelihood sequence decoding of the
// rate-1/2 mother code from soft values (+1 → bit 0, −1 → bit 1,
// 0 → erasure; magnitudes act as reliabilities). len(soft) must be even;
// each pair (A, B) is one trellis step.
//
// If terminated is true the encoder is assumed to have appended TailBits
// zeros (EncodeTerminated): the survivor ending in state 0 is chosen and
// the tail is stripped from the returned bits. Otherwise the best final
// state is used and all decisions are returned.
//
// The returned bits are the caller's; Viterbi.Decode is the
// allocation-free form.
func ViterbiDecode(soft []float64, terminated bool) ([]byte, error) {
	return new(Viterbi).Decode(soft, terminated)
}

// Decode is ViterbiDecode in v's working memory. The returned bits
// alias v and stay valid until v's next decode.
//
// Ties resolve deterministically: a state whose two candidate paths
// have equal metrics keeps the one from the lower predecessor, and an
// unterminated decode ends in the lowest state of maximal metric.
func (v *Viterbi) Decode(soft []float64, terminated bool) ([]byte, error) {
	if len(soft)%2 != 0 {
		return nil, fmt.Errorf("fec: soft stream length %d is odd", len(soft))
	}
	steps := len(soft) / 2
	if steps == 0 {
		return nil, nil
	}
	if terminated && steps < TailBits {
		return nil, fmt.Errorf("fec: %d steps too short for terminated trellis", steps)
	}
	if cap(v.surv) < steps {
		v.surv = make([]uint64, steps)
		v.bits = make([]byte, steps)
	}
	surv := v.surv[:steps]

	negInf := math.Inf(-1)
	var bufs [2][NumStates]float64
	for s := 1; s < NumStates; s++ {
		bufs[0][s] = negInf // encoder starts in state 0
	}
	metric := &bufs[acsSteps(&bufs, soft, surv)]

	// Pick the final state.
	final := 0
	if !terminated {
		best := negInf
		for s, m := range metric {
			if m > best {
				best, final = m, s
			}
		}
	} else if metric[0] == negInf {
		return nil, fmt.Errorf("fec: no survivor reaches the zero state")
	}

	// Traceback: the input bit that entered state s is its top bit, and
	// its predecessor is s shifted up with the survivor bit below.
	bits := v.bits[:steps]
	s := final
	for t := steps - 1; t >= 0; t-- {
		bits[t] = byte(s >> (ConstraintLength - 2))
		s = (s<<1)&(NumStates-1) | int(surv[t]>>uint(s)&1)
	}
	if terminated {
		bits = bits[:steps-TailBits]
	}
	return bits, nil
}

// DecodePunctured depunctures a soft stream of the given rate and runs
// the Viterbi decoder. nInfo is the number of information bits expected
// (excluding tail); terminated indicates whether TailBits zeros were
// appended before encoding.
func DecodePunctured(soft []float64, rate CodeRate, nInfo int, terminated bool) ([]byte, error) {
	return new(Viterbi).DecodePunctured(soft, rate, nInfo, terminated)
}

// DecodePunctured is the package-level DecodePunctured in v's working
// memory. The returned bits alias v and stay valid until v's next
// decode.
func (v *Viterbi) DecodePunctured(soft []float64, rate CodeRate, nInfo int, terminated bool) ([]byte, error) {
	steps := nInfo
	if terminated {
		steps += TailBits
	}
	mother, err := DepunctureInto(v.mother, soft, rate, 2*steps)
	if err != nil {
		return nil, err
	}
	v.mother = mother
	bits, err := v.Decode(mother, terminated)
	if err != nil {
		return nil, err
	}
	if len(bits) < nInfo {
		return nil, fmt.Errorf("fec: decoded %d bits, expected %d", len(bits), nInfo)
	}
	return bits[:nInfo], nil
}

// EncodePunctured encodes bits with the terminated mother code and
// punctures to the given rate.
func EncodePunctured(bits []byte, rate CodeRate) []byte {
	return Puncture(EncodeTerminated(bits), rate)
}

// PuncturedEncoder is the streaming form of EncodePunctured over
// bytes: it encodes each written byte's bits, least significant first
// (BytesToBits order), with the mother code and keeps only the coded
// bits the rate's puncture pattern transmits. The codeword goes into a
// caller-owned buffer, so re-encoding a frame allocates nothing once
// that buffer has grown. The zero value is not ready; call Reset.
type PuncturedEncoder struct {
	out   []byte
	pat   []bool
	state uint32
	pos   int // mother-code bit index modulo len(pat)
}

// Reset starts a new codeword at rate from the all-zeros state,
// writing into dst's storage.
func (e *PuncturedEncoder) Reset(dst []byte, rate CodeRate) {
	*e = PuncturedEncoder{out: dst[:0], pat: rate.puncturePattern()}
}

// Write encodes data's bits.
func (e *PuncturedEncoder) Write(data []byte) {
	for _, b := range data {
		for i := 0; i < 8; i++ {
			e.bit(b >> uint(i) & 1)
		}
	}
}

// Terminate encodes the TailBits zero tail, which returns the trellis
// to the all-zeros state, and returns the punctured codeword.
func (e *PuncturedEncoder) Terminate() []byte {
	for i := 0; i < TailBits; i++ {
		e.bit(0)
	}
	return e.out
}

func (e *PuncturedEncoder) bit(b byte) {
	window := e.state | uint32(b)<<(ConstraintLength-1)
	e.emit(parity(window & G0))
	e.emit(parity(window & G1))
	e.state = window >> 1
}

func (e *PuncturedEncoder) emit(c byte) {
	if e.pat[e.pos] {
		e.out = append(e.out, c)
	}
	if e.pos++; e.pos == len(e.pat) {
		e.pos = 0
	}
}
