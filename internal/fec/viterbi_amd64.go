package fec

import "backfi/internal/cpufeat"

// useAVX2 selects the assembly kernel; it is fixed at start-up from
// cpufeat.AVX2. Tests flip it to run both kernels in one process.
var useAVX2 = cpufeat.AVX2

// acsSignMasks[g] holds, for butterflies 4g…4g+3 in lane order, the
// sign bit of the branch term x (row 0) and y (row 1) of the
// even-predecessor, input-0 branch: set where butterflySign has the
// coded bit 1, so that XOR with the broadcast soft value gives ta[a]
// and tb[b] of the Go kernel.
var acsSignMasks = buildACSSignMasks()

func buildACSSignMasks() (out [NumStates / 8][2][4]uint64) {
	for j, sign := range butterflySign {
		g, lane := j/4, j%4
		out[g][0][lane] = uint64(sign&1) << 63
		out[g][1][lane] = uint64(sign>>1&1) << 63
	}
	return out
}

// acsSteps is the forward pass of Decode (acsStepsGeneric's contract).
// With AVX2 it runs the whole stream in acsAVX2; otherwise the Go
// kernel.
func acsSteps(bufs *[2][NumStates]float64, soft []float64, surv []uint64) (final int) {
	if !useAVX2 || len(surv) == 0 {
		return acsStepsGeneric(bufs, soft, surv)
	}
	_ = soft[2*len(surv)-1]
	acsAVX2(bufs, &soft[0], &surv[0], len(surv), &acsSignMasks)
	return len(surv) & 1
}

// acsAVX2 runs steps trellis steps of the add-compare-select on the
// metrics in bufs[0], alternating with bufs[1], reading two soft values
// and writing one survivor word per step. Every sum, compare and
// decision equals the Go kernel's (viterbi_amd64.s).
//
//go:noescape
func acsAVX2(bufs *[2][NumStates]float64, soft *float64, surv *uint64, steps int, masks *[NumStates / 8][2][4]uint64)
