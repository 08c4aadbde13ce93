package fec

// acsStepsGeneric is the Go add-compare-select kernel: starting from
// the path metrics in bufs[0], it runs one trellis step per survivor
// word in surv, reading soft[2t] and soft[2t+1] for step t and writing
// surv[t], and returns the index of the buffer that holds the final
// metrics. The two buffers alternate as current and next metrics.
func acsStepsGeneric(bufs *[2][NumStates]float64, soft []float64, surv []uint64) (final int) {
	metric, next := &bufs[0], &bufs[1]
	for t := range surv {
		sa, sb := soft[2*t], soft[2*t+1]
		// Branch terms by sign bit: bit clear adds the soft value,
		// bit set subtracts it. Metrics accumulate as (m ± sa) ± sb.
		ta := [2]float64{sa, -sa}
		tb := [2]float64{sb, -sb}
		var dec uint64
		for j, sign := range butterflySign {
			m0, m1 := metric[2*j], metric[2*j+1]
			a, b := sign&1, sign>>1&1
			x, y := ta[a], tb[b]
			nx, ny := ta[a^1], tb[b^1]
			// Input 0 into state j: state 2j emits (a, b), state 2j+1
			// the complement.
			lo := m0 + x + y
			if c := m1 + nx + ny; c > lo {
				lo = c
				dec |= 1 << uint(j)
			}
			// Input 1 into state j+32: the polarities swap.
			hi := m0 + nx + ny
			if c := m1 + x + y; c > hi {
				hi = c
				dec |= 1 << uint(j+NumStates/2)
			}
			next[j], next[j+NumStates/2] = lo, hi
		}
		surv[t] = dec
		metric, next = next, metric
	}
	return len(surv) & 1
}
