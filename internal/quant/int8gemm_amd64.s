#include "textflag.h"

// func madd4x16(w *int32, b *int8, ldb, k int, c *int32, ldc, rows int)
//
// One 4-row x 16-column int32 tile of gemmWords: c[r*ldc+j] = sum over k
// of row r's weights times b[k*ldb+j], for r < rows, j < 16. w walks the
// tile's words (see packWords), four per pair of k. Each step loads rows
// k and k+1 of the panel, interleaves them bytewise and sign-extends to
// int16 pairs (b[k][j], b[k+1][j]), so one VPMADDWD against a broadcast
// weight pair (w[r][k], w[r][k+1]) yields eight columns' two-term sums in
// int32 lanes. An odd k pairs its last row with itself under the zero
// upper half packWords gives that word.
TEXT ·madd4x16(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ldb+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R8
	MOVQ rows+48(FP), R9

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	LEAQ (DI)(BX*1), R10 // row k+1
	SHLQ $1, BX          // two rows per step
	MOVQ CX, R11
	SHRQ $1, R11         // whole pairs of k
	JZ   odd

loop:
	VMOVDQU    (DI), X8
	VMOVDQU    (R10), X9
	VPUNPCKHBW X9, X8, X10
	VPUNPCKLBW X9, X8, X8
	VPMOVSXBW  X8, Y8    // columns 0-7 as (b[k][j], b[k+1][j])
	VPMOVSXBW  X10, Y9   // columns 8-15

	VPBROADCASTD (SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y0, Y0
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y1, Y1

	VPBROADCASTD 4(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y2, Y2
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y3, Y3

	VPBROADCASTD 8(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y4, Y4
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y5, Y5

	VPBROADCASTD 12(SI), Y10
	VPMADDWD     Y8, Y10, Y11
	VPADDD       Y11, Y6, Y6
	VPMADDWD     Y9, Y10, Y11
	VPADDD       Y11, Y7, Y7

	ADDQ $16, SI
	ADDQ BX, DI
	ADDQ BX, R10
	DECQ R11
	JNZ  loop

odd:
	BTRQ $0, CX // clear k's low bit so the extra step runs once
	JCC  store
	MOVQ DI, R10
	MOVQ $1, R11
	JMP  loop

store:
	SHLQ    $2, R8 // ldc in bytes
	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	CMPQ    R9, $1
	JEQ     done
	ADDQ    R8, DX
	VMOVDQU Y2, (DX)
	VMOVDQU Y3, 32(DX)
	CMPQ    R9, $2
	JEQ     done
	ADDQ    R8, DX
	VMOVDQU Y4, (DX)
	VMOVDQU Y5, 32(DX)
	CMPQ    R9, $3
	JEQ     done
	ADDQ    R8, DX
	VMOVDQU Y6, (DX)
	VMOVDQU Y7, 32(DX)

done:
	VZEROUPPER
	RET

// The constants quant8 and requant8 share, each broadcast to every lane by
// ROUND_CONSTS: Y14 = 127, Y13 = -127, Y12 = 0.5 and Y11 = the sign bit.
// They are loaded from memory: a legacy-SSE move into an XMM register
// whose upper half is dirty costs a state transition on some CPUs.
DATA  roundc<>+0(SB)/4, $0x42fe0000
DATA  roundc<>+4(SB)/4, $0xc2fe0000
DATA  roundc<>+8(SB)/4, $0x3f000000
DATA  roundc<>+12(SB)/4, $0x80000000
GLOBL roundc<>(SB), RODATA|NOPTR, $16

#define ROUND_CONSTS \
	VBROADCASTSS roundc<>+0(SB), Y14; \
	VBROADCASTSS roundc<>+4(SB), Y13; \
	VBROADCASTSS roundc<>+8(SB), Y12; \
	VBROADCASTSS roundc<>+12(SB), Y11

// ROUND8 stores Y0's eight float32 lanes to (DI) as int8 with the scalar
// loops' every step. NaN lanes are zeroed (an ordered compare against
// themselves masks them) before the clamp, since VMINPS and VMAXPS return
// their second operand for NaN; the clamp to +-127; then +-0.5 by the sign
// bit and a truncating convert. A -0 takes -0.5 where the scalar loops add
// +0.5, and both truncate to 0. The int32 lanes are packed to int8 with
// saturation, which the clamp has made a no-op. Clobbers Y1.
#define ROUND8 \
	VCMPPS       $7, Y0, Y0, Y1; \
	VANDPS       Y1, Y0, Y0; \
	VMINPS       Y14, Y0, Y0; \
	VMAXPS       Y13, Y0, Y0; \
	VANDPS       Y11, Y0, Y1; \
	VORPS        Y12, Y1, Y1; \
	VADDPS       Y1, Y0, Y0; \
	VCVTTPS2DQ   Y0, Y0; \
	VEXTRACTI128 $1, Y0, X1; \
	VPACKSSDW    X1, X0, X0; \
	VPACKSSWB    X0, X0, X0; \
	VMOVQ        X0, (DI)

// func quant8(dst *int8, src *float32, n int, s float32)
//
// quantScalar eight values at a time, for n a positive multiple of 8:
// dst[i] = clamp(round(src[i]/s)). VDIVPS divides as DIVSS does; ROUND8
// does the rest.
TEXT ·quant8(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS s+24(FP), Y15
	ROUND_CONSTS

quant:
	VMOVUPS (SI), Y0
	VDIVPS  Y15, Y0, Y0
	ROUND8
	ADDQ    $32, SI
	ADDQ    $8, DI
	SUBQ    $8, CX
	JNZ     quant
	VZEROUPPER
	RET

// func requant8(dst *int8, acc *int32, n int, rq, bq, slope float32)
//
// requantScalar eight values at a time, for n a positive multiple of 8:
// dst[i] = clamp(round(leaky(float32(acc[i])*rq + bq))). VCVTDQ2PS rounds
// to nearest even as CVTSL2SS does; the product is rounded before the add
// (VMULPS, then VADDPS); lanes below zero (an ordered compare, so -0 is not
// one) take the product with slope through VBLENDVPS; ROUND8 does the rest.
TEXT ·requant8(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS rq+24(FP), Y15
	VBROADCASTSS bq+28(FP), Y10
	VBROADCASTSS slope+32(FP), Y9
	VXORPS       Y8, Y8, Y8
	ROUND_CONSTS

requant:
	VCVTDQ2PS (SI), Y0
	VMULPS    Y15, Y0, Y0
	VADDPS    Y10, Y0, Y0
	VCMPPS    $1, Y8, Y0, Y1 // v < 0
	VMULPS    Y9, Y0, Y2
	VBLENDVPS Y1, Y2, Y0, Y0
	ROUND8
	ADDQ      $32, SI
	ADDQ      $8, DI
	SUBQ      $8, CX
	JNZ       requant
	VZEROUPPER
	RET
