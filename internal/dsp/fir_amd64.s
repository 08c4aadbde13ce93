#include "textflag.h"

// The kernel rounds like gc's complex128 arithmetic. For a sample
// a+bi and a tap c+di gc forms re = a·c − b·d and im = b·c + a·d, each
// product and sum rounded on its own (on amd64 gc emits FMA only for
// math.FMA), then adds the product to the accumulator. Here one YMM register holds two
// complex samples [a0 b0 a1 b1]:
//
//	P = x ⊙ [c c c c]          = [a·c  b·c ...]
//	Q = swap(x) ⊙ [d d d d]    = [b·d  a·d ...]
//	VADDSUBPD Q, P             = [a·c − b·d  b·c + a·d ...]
//	acc = acc + that
//
// with the same operands in the same order, so every output matches
// convolveAt bit for bit; a NaN from one source (a NaN tap, or ∞−∞)
// keeps its bits too. It never uses FMA. A tap is skipped when both of
// its parts are ±0, as convolveAt's hv != 0.

// CMAC adds tap (Y4, Y5) = ([c c c c], [d d d d]) times the two samples
// at off(R9) to acc, with X and T as scratch.
#define CMAC(off, X, T, acc) \
	VMOVUPD   off(R9), X \
	VPERMILPD $5, X, T   \
	VMULPD    Y4, X, X   \
	VMULPD    Y5, T, T   \
	VADDSUBPD T, X, X    \
	VADDPD    X, acc, acc

// TAP loads tap R8 into Y4 and Y5, or jumps to skip if both of its
// parts are ±0 (shifting out the sign bits).
#define TAP(skip) \
	MOVQ         (R8), AX  \
	ORQ          8(R8), AX \
	SHLQ         $1, AX    \
	JZ           skip      \
	VBROADCASTSD (R8), Y4  \
	VBROADCASTSD 8(R8), Y5

// NEXT steps to the next tap and the previous sample, then jumps to
// loop.
#define NEXT(loop) \
	ADDQ $16, R8  \
	SUBQ $16, R9  \
	DECQ R10      \
	JMP  loop

// SWEEP starts a sweep over the taps: R8 = &h[0], R9 = &x[j] for the
// block's first output j, R10 = taps left.
#define SWEEP \
	MOVQ DX, R8 \
	MOVQ SI, R9 \
	MOVQ CX, R10

// func convolveAVX2(dst, x, h *complex128, taps, count int)
TEXT ·convolveAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DX
	MOVQ taps+24(FP), CX
	MOVQ count+32(FP), BX

block8:
	// Eight outputs per sweep: four accumulators of two outputs each.
	CMPQ   BX, $8
	JLT    block4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SWEEP

tap8:
	TESTQ R10, R10
	JZ    store8
	TAP(next8)
	CMAC(0, Y6, Y10, Y0)
	CMAC(32, Y7, Y11, Y1)
	CMAC(64, Y8, Y12, Y2)
	CMAC(96, Y9, Y13, Y3)

next8:
	NEXT(tap8)

store8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $8, BX
	JMP     block8

block4:
	// At most one block of four outputs, then two at a time.
	CMPQ   BX, $4
	JLT    block2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SWEEP

tap4:
	TESTQ R10, R10
	JZ    store4
	TAP(next4)
	CMAC(0, Y6, Y10, Y0)
	CMAC(32, Y7, Y11, Y1)

next4:
	NEXT(tap4)

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $4, BX

block2:
	CMPQ   BX, $2
	JLT    done
	VXORPD Y0, Y0, Y0
	SWEEP

tap2:
	TESTQ R10, R10
	JZ    store2
	TAP(next2)
	CMAC(0, Y6, Y10, Y0)

next2:
	NEXT(tap2)

store2:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $2, BX
	JMP     block2

done:
	VZEROUPPER
	RET
