#include "textflag.h"

// One YMM register holds four butterflies j = 4g…4g+3 of the 32, so a
// trellis step is eight groups. For each group the kernel forms the
// Go kernel's four candidates with the same operands in the same order,
//
//	lo = (m0 + x) + y     c  = (m1 + nx) + ny
//	hi = (m0 + nx) + ny   c2 = (m1 + x) + y
//
// each sum rounded on its own (no FMA, no reassociation), where x and
// y are the broadcast soft values with the butterfly's sign bits XORed
// in (exactly Go's −sa, also for ±0 and NaN) and nx, ny their
// negations. VCMPPD GT_OQ is strict and false when either side is NaN,
// so like `if c > lo` a tie or a NaN keeps the even predecessor;
// VBLENDVPD selects the survivor and VMOVMSKPD packs the four decision
// bits at j and j+32 of the step's survivor word.

// GROUP runs butterflies 4g…4g+3: it reads the metrics at moff(SI),
// moff+32(SI) (states 8g…8g+7), the sign masks at xoff(R8) and
// xoff+32(R8), writes the new metrics at loff(DI) (states 4g…4g+3) and
// loff+256(DI) (states 32+4g…), and ORs the decisions into R9 at bits
// lsh and lsh+32.
#define GROUP(moff, moff32, xoff, yoff, loff, hoff, lsh, hsh) \
	VMOVUPD   moff(SI), Y0        \
	VMOVUPD   moff32(SI), Y1      \
	VUNPCKLPD Y1, Y0, Y2          \
	VUNPCKHPD Y1, Y0, Y3          \
	VPERMPD   $0xD8, Y2, Y2       \
	VPERMPD   $0xD8, Y3, Y3       \
	VXORPD    xoff(R8), Y14, Y4   \
	VXORPD    yoff(R8), Y15, Y5   \
	VXORPD    Y13, Y4, Y6         \
	VXORPD    Y13, Y5, Y7         \
	VADDPD    Y4, Y2, Y8          \
	VADDPD    Y5, Y8, Y8          \
	VADDPD    Y6, Y3, Y9          \
	VADDPD    Y7, Y9, Y9          \
	VCMPPD    $0x1E, Y8, Y9, Y10  \
	VBLENDVPD Y10, Y9, Y8, Y8     \
	VMOVMSKPD Y10, AX             \
	SHLQ      $lsh, AX            \
	ORQ       AX, R9              \
	VMOVUPD   Y8, loff(DI)        \
	VADDPD    Y6, Y2, Y11         \
	VADDPD    Y7, Y11, Y11        \
	VADDPD    Y4, Y3, Y12         \
	VADDPD    Y5, Y12, Y12        \
	VCMPPD    $0x1E, Y11, Y12, Y0 \
	VBLENDVPD Y0, Y12, Y11, Y11   \
	VMOVMSKPD Y0, AX              \
	SHLQ      $hsh, AX            \
	ORQ       AX, R9              \
	VMOVUPD   Y11, hoff(DI)

// func acsAVX2(bufs *[2][NumStates]float64, soft *float64, surv *uint64, steps int, masks *[NumStates / 8][2][4]uint64)
TEXT ·acsAVX2(SB), NOSPLIT, $0-40
	MOVQ bufs+0(FP), SI
	LEAQ 512(SI), DI
	MOVQ soft+8(FP), DX
	MOVQ surv+16(FP), BX
	MOVQ steps+24(FP), CX
	MOVQ masks+32(FP), R8

	// Y13 = the sign bit of every lane.
	VPCMPEQQ Y13, Y13, Y13
	VPSLLQ   $63, Y13, Y13

step:
	TESTQ        CX, CX
	JZ           done
	VBROADCASTSD (DX), Y14
	VBROADCASTSD 8(DX), Y15
	XORQ         R9, R9
	GROUP(0, 32, 0, 32, 0, 256, 0, 32)
	GROUP(64, 96, 64, 96, 32, 288, 4, 36)
	GROUP(128, 160, 128, 160, 64, 320, 8, 40)
	GROUP(192, 224, 192, 224, 96, 352, 12, 44)
	GROUP(256, 288, 256, 288, 128, 384, 16, 48)
	GROUP(320, 352, 320, 352, 160, 416, 20, 52)
	GROUP(384, 416, 384, 416, 192, 448, 24, 56)
	GROUP(448, 480, 448, 480, 224, 480, 28, 60)
	MOVQ         R9, (BX)

	// The next metrics become the current ones.
	XCHGQ SI, DI
	ADDQ  $16, DX
	ADDQ  $8, BX
	DECQ  CX
	JMP   step

done:
	VZEROUPPER
	RET
