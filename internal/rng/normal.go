package rng

import "math"

// Block is the number of normals a caller fills at a time: 2 KiB of
// float64s, small enough for a stack array. Draws never carry from one
// call to the next — a call's unused normals are dropped — so what a
// call draws depends only on the stream's state and the call's length.
const Block = 256

// The ziggurat (Marsaglia & Tsang, 2000) covers the half-normal density
// f(x) = exp(−x²/2) with zigN = 256 layers of equal area zigV: layer 0
// is the base strip [0, zigR] plus the tail beyond zigR, layer i ≥ 1
// the rectangle of width zigX[i] between heights f(zigX[i]) and
// f(zigX[i+1]). zigR and zigV close the stack: the top layer's area is
// zigV to 1e-9 (TestZigguratTables).
const (
	zigN = 256
	zigR = 3.6541528853610088
	zigV = 0.00492867323399
)

var (
	zigX [zigN + 1]float64 // layer widths; zigX[0] = zigV/f(zigR), zigX[zigN] = 0
	zigF [zigN + 1]float64 // f(zigX[i])
	zigW [zigN]float64     // zigX[i] / 2²³: one step of a 23-bit magnitude
	zigK [zigN]uint32      // magnitudes below zigK[i] fall inside layer i+1's width
)

func init() {
	zigX[0] = zigV / math.Exp(-0.5*zigR*zigR)
	zigX[1] = zigR
	for i := 1; i < zigN-1; i++ {
		zigX[i+1] = math.Sqrt(-2 * math.Log(zigV/zigX[i]+math.Exp(-0.5*zigX[i]*zigX[i])))
	}
	for i := range zigF {
		zigF[i] = math.Exp(-0.5 * zigX[i] * zigX[i])
	}
	for i := range zigK {
		zigW[i] = zigX[i] / (1 << 23)
		zigK[i] = uint32(zigX[i+1] / zigX[i] * (1 << 23))
	}
}

// FillNormal fills dst with independent standard normals. Each 64-bit
// draw yields two: each 32-bit half picks a layer (8 bits), a sign
// (1 bit) and a magnitude (23 bits), and 98.5% of halves are accepted
// on that alone; the rest finish by rejection with further draws. An
// odd length spends one draw on its last normal.
func (s *Source) FillNormal(dst []float64) {
	// The state lives in a register across the fast path; the slow path
	// draws through s, so it is stored before and reloaded after.
	st := s.state
	for i := 0; i < len(dst); i += 2 {
		st += 0x9e3779b97f4a7c15
		u := mix64(st)
		h := uint32(u)
		if m := h >> 9; m < zigK[h&(zigN-1)] {
			dst[i] = zigFast(h, m)
		} else {
			s.state = st
			dst[i] = s.normalSlow(h)
			st = s.state
		}
		if i+1 == len(dst) {
			break
		}
		h = uint32(u >> 32)
		if m := h >> 9; m < zigK[h&(zigN-1)] {
			dst[i+1] = zigFast(h, m)
		} else {
			s.state = st
			dst[i+1] = s.normalSlow(h)
			st = s.state
		}
	}
	s.state = st
}

// zigFast is the ziggurat's fast path for 32 random bits h whose 23-bit
// magnitude m fell inside the next layer's width: m scaled to its
// layer, signed by bit 8 (shifted to bit 63, it negates).
func zigFast(h, m uint32) float64 {
	return math.Float64frombits(math.Float64bits((float64(m)+0.5)*zigW[h&(zigN-1)]) | uint64(h&zigN)<<55)
}

// AddComplexNormal adds complex Gaussian noise of per-dimension
// standard deviation sigma to every sample of x, one 64-bit draw per
// sample, a Block at a time.
func (s *Source) AddComplexNormal(x []complex128, sigma float64) {
	var blk [Block]float64
	for len(x) > 0 {
		n := min(len(x), Block/2)
		s.FillNormal(blk[:2*n])
		for k := range x[:n] {
			x[k] += complex(blk[2*k]*sigma, blk[2*k+1]*sigma)
		}
		x = x[n:]
	}
}

// normalSlow finishes a draw the fast path rejected: the base strip's
// tail beyond zigR by Marsaglia's exponential method, a layer's wedge
// by testing a uniform height against f, and on rejection a fresh
// 32-bit draw.
func (s *Source) normalSlow(h uint32) float64 {
	for {
		i := h & (zigN - 1)
		m := h >> 9
		x := (float64(m) + 0.5) * zigW[i]
		switch {
		case m < zigK[i]:
		case i == 0:
			for {
				a := -math.Log(s.uniform()) / zigR
				b := -math.Log(s.uniform())
				if b+b >= a*a {
					x = zigR + a
					break
				}
			}
		case zigF[i]+s.uniform()*(zigF[i+1]-zigF[i]) < math.Exp(-0.5*x*x):
		default:
			h = uint32(s.Uint64())
			continue
		}
		if h&zigN != 0 {
			return -x
		}
		return x
	}
}

// uniform returns a uniform draw in (0, 1] with 53 bits of resolution.
func (s *Source) uniform() float64 {
	return float64(s.Uint64()>>11+1) / (1 << 53)
}
