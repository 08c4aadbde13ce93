package fec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The reference decoder and puncture counter below are the textbook
// forms the production code replaced: a state-by-state Viterbi with a
// byte of decision per state and step, and a bit-by-bit puncture
// count. They stay here as executable specifications; the butterfly
// kernel and the closed-form length must reproduce them exactly.

// refTrellis holds, for each state and input bit, the next state and
// the two expected output signs.
type refTrellis struct {
	nextState [NumStates][2]int
	outSign   [NumStates][2][2]float64
}

var refTrel = func() *refTrellis {
	t := &refTrellis{}
	for s := 0; s < NumStates; s++ {
		for b := 0; b < 2; b++ {
			window := uint32(s) | uint32(b)<<(ConstraintLength-1)
			t.nextState[s][b] = int(window >> 1)
			t.outSign[s][b][0] = 1 - 2*float64(parity(window&G0))
			t.outSign[s][b][1] = 1 - 2*float64(parity(window&G1))
		}
	}
	return t
}()

func refViterbiDecode(soft []float64, terminated bool) ([]byte, error) {
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
	negInf := math.Inf(-1)
	metric := make([]float64, NumStates)
	next := make([]float64, NumStates)
	for s := 1; s < NumStates; s++ {
		metric[s] = negInf
	}
	decisions := make([]uint8, steps*NumStates)
	for t := 0; t < steps; t++ {
		sa, sb := soft[2*t], soft[2*t+1]
		dec := decisions[t*NumStates : (t+1)*NumStates]
		for i := range next {
			next[i] = negInf
		}
		for s := 0; s < NumStates; s++ {
			m := metric[s]
			if m == negInf {
				continue
			}
			for b := 0; b < 2; b++ {
				ns := refTrel.nextState[s][b]
				bm := m + sa*refTrel.outSign[s][b][0] + sb*refTrel.outSign[s][b][1]
				if bm > next[ns] {
					next[ns] = bm
					dec[ns] = uint8(s) | uint8(b)<<7
				}
			}
		}
		metric, next = next, metric
	}
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
	bits := make([]byte, steps)
	s := final
	for t := steps - 1; t >= 0; t-- {
		d := decisions[t*NumStates+s]
		bits[t] = d >> 7
		s = int(d & 0x3F)
	}
	if terminated {
		bits = bits[:steps-TailBits]
	}
	return bits, nil
}

func refPuncturedLength(motherLen int, rate CodeRate) int {
	pat := rate.puncturePattern()
	n := 0
	for i := 0; i < motherLen; i++ {
		if pat[i%len(pat)] {
			n++
		}
	}
	return n
}

var allRates = []CodeRate{Rate12, Rate23, Rate34}

func TestPuncturedLengthMatchesReference(t *testing.T) {
	for _, rate := range allRates {
		// The reference count is cumulative, so one pass covers every
		// length below 1e5.
		pat := rate.puncturePattern()
		want := 0
		for n := 0; n < 100000; n++ {
			if got := PuncturedLength(n, rate); got != want {
				t.Fatalf("rate %s: PuncturedLength(%d) = %d, want %d", rate, n, got, want)
			}
			if pat[n%len(pat)] {
				want++
			}
		}
		for _, n := range []int{-7, -1, 0, 1, 5, 131071, 1 << 20} {
			if got, want := PuncturedLength(n, rate), refPuncturedLength(n, rate); got != want {
				t.Fatalf("rate %s: PuncturedLength(%d) = %d, want %d", rate, n, got, want)
			}
		}
	}
}

// streamKind names a family of soft inputs for the equivalence test.
type streamKind int

const (
	// gaussian: a codeword in BPSK ±1 plus Gaussian noise.
	gaussian streamKind = iota
	// hard: random ±1/0 values, no codeword; equal metrics everywhere
	// stress the tie-break.
	hard
	// erasure: a punctured codeword, depunctured, with random erasures
	// and sign flips.
	erasure
	numKinds
)

func (k streamKind) String() string {
	return [...]string{"gaussian", "hard", "erasure"}[k]
}

// randomStream draws one soft mother-code stream of the given kind.
func randomStream(r *rand.Rand, kind streamKind, rate CodeRate, terminated bool) []float64 {
	nInfo := 1 + r.Intn(400)
	bits := randBits(r, nInfo)
	var coded []byte
	if terminated {
		coded = EncodeTerminated(bits)
	} else {
		coded = ConvEncode(bits)
	}
	switch kind {
	case gaussian:
		sigma := 0.2 + 1.5*r.Float64()
		tx := Puncture(coded, rate)
		soft := HardToSoft(tx)
		for i := range soft {
			soft[i] += sigma * r.NormFloat64()
		}
		mother, err := Depuncture(soft, rate, len(coded))
		if err != nil {
			panic(err)
		}
		return mother
	case hard:
		soft := make([]float64, len(coded))
		for i := range soft {
			soft[i] = float64(r.Intn(3) - 1)
		}
		return soft
	default:
		soft := HardToSoft(Puncture(coded, rate))
		for i := range soft {
			switch r.Intn(8) {
			case 0:
				soft[i] = 0
			case 1:
				soft[i] = -soft[i]
			}
		}
		mother, err := Depuncture(soft, rate, len(coded))
		if err != nil {
			panic(err)
		}
		return mother
	}
}

func sameDecode(t *testing.T, what string, soft []float64, terminated bool, v *Viterbi) {
	t.Helper()
	want, werr := refViterbiDecode(soft, terminated)
	got, gerr := v.Decode(soft, terminated)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d decoded bits differ from the reference", what, len(want))
	}
	if wrapped, _ := ViterbiDecode(soft, terminated); !bytes.Equal(wrapped, want) {
		t.Fatalf("%s: ViterbiDecode differs from the reference", what)
	}
}

// TestViterbiMatchesReference decodes 3000 random streams — Gaussian,
// hard ±1/0 and erasure, at every rate, terminated and not — with one
// reused Viterbi and requires every bit to match the reference.
func TestViterbiMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var v Viterbi
	for i := 0; i < 3000; i++ {
		kind := streamKind(i % int(numKinds))
		rate := allRates[i/int(numKinds)%len(allRates)]
		terminated := i/(int(numKinds)*len(allRates))%2 == 0
		soft := randomStream(r, kind, rate, terminated)
		sameDecode(t, fmt.Sprintf("stream %d (%s, rate %s, terminated %v)", i, kind, rate, terminated), soft, terminated, &v)
	}
}

func TestViterbiDecodePuncturedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var v Viterbi
	for i := 0; i < 300; i++ {
		rate := allRates[i%len(allRates)]
		terminated := i%2 == 0
		nInfo := 1 + r.Intn(300)
		bits := randBits(r, nInfo)
		coded := ConvEncode(bits)
		if terminated {
			coded = EncodeTerminated(bits)
		}
		soft := HardToSoft(Puncture(coded, rate))
		for k := range soft {
			soft[k] += r.NormFloat64()
		}
		mother, err := Depuncture(soft, rate, len(coded))
		if err != nil {
			t.Fatal(err)
		}
		want, err := refViterbiDecode(mother, terminated)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.DecodePunctured(soft, rate, nInfo, terminated)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[:nInfo]) {
			t.Fatalf("case %d (rate %s, terminated %v): bits differ from the reference", i, rate, terminated)
		}
	}
}

// FuzzViterbiDecode checks the butterfly kernel against the reference
// on finite input of moderate magnitude, and on any input (NaN, ±Inf,
// metrics that overflow) that it neither panics nor breaks the length
// contract.
func FuzzViterbiDecode(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add(make([]byte, 8*14), true)
	seed := make([]byte, 0, 8*40)
	for _, v := range HardToSoft(EncodeTerminated([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1})) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, true)
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), math.Float64bits(math.Inf(1))), false)
	f.Fuzz(func(t *testing.T, raw []byte, terminated bool) {
		soft := make([]float64, len(raw)/8)
		moderate := true
		for i := range soft {
			soft[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if !(math.Abs(soft[i]) <= 1e150) {
				moderate = false
			}
		}
		var v Viterbi
		got, err := v.Decode(soft, terminated)
		if moderate {
			sameDecode(t, "fuzz input", soft, terminated, &v)
		}
		if err != nil {
			return
		}
		want := len(soft) / 2
		if terminated {
			want -= TailBits
		}
		if len(soft) == 0 {
			want = 0
		}
		if len(got) != want {
			t.Fatalf("%d soft values decoded to %d bits, want %d", len(soft), len(got), want)
		}
		for _, b := range got {
			if b > 1 {
				t.Fatalf("decoded bit %d", b)
			}
		}
	})
}

// TestViterbiZeroAlloc pins that a reused Viterbi decodes a tag frame
// — terminated, unterminated and punctured — into its own scratch with
// no allocation.
func TestViterbiZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	bits := randBits(r, tagFrameInfoBits)
	soft := HardToSoft(EncodeTerminated(bits))
	punct := HardToSoft(EncodePunctured(bits, Rate23))
	var v Viterbi
	for name, decode := range map[string]func() error{
		"terminated": func() error { _, err := v.Decode(soft, true); return err },
		"open":       func() error { _, err := v.Decode(soft, false); return err },
		"punctured": func() error {
			_, err := v.DecodePunctured(punct, Rate23, tagFrameInfoBits, true)
			return err
		},
	} {
		if err := decode(); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%s decode: %v allocs per run, want 0", name, n)
		}
	}
}
