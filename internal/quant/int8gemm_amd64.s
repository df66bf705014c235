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

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
