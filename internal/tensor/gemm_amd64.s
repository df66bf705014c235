#include "textflag.h"

// LEAKY applies gemmBlock's leaky to one accumulator: lanes below zero (an
// ordered compare, so -0 and NaN are not) take the product with the slope
// in Y14 through VBLENDVPS; Y13 holds zero.
#define LEAKY(acc) \
	VCMPPS    $1, Y13, acc, Y15; \
	VMULPS    Y14, acc, Y12; \
	VBLENDVPS Y15, Y12, acc, acc

// func mul4x16(a *float32, lda int, bias *float32, b *float32, ldb, k int, c *float32, ldc, rows int, slope float32)
//
// One 4-row x 16-column tile of gemmTiles: c[r*ldc+j] = leaky(bias[r] +
// sum over k of a[r*lda+k]*b[k*ldb+j], slope), for r < rows, j < 16. Each
// output has one accumulator, starting from its broadcast bias, and k runs
// strictly ascending: every step loads panel row k (two YMM of eight
// columns), broadcasts each row's weight, multiplies with VMULPS and adds
// the rounded product with VADDPS, accumulator first. No VFMADD: a fused
// multiply-add rounds once where gemmBlock rounds twice. The activation
// runs on the accumulators before they are stored. A row at or past rows
// reads row 0's weights and bias and is never stored.
TEXT ·mul4x16(SB), NOSPLIT, $0-76
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	MOVQ bias+16(FP), R10
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), BX
	MOVQ k+40(FP), CX
	MOVQ c+48(FP), DX
	MOVQ ldc+56(FP), R8
	MOVQ rows+64(FP), R9

	SHLQ $2, AX // lda in bytes
	SHLQ $2, BX // ldb in bytes
	SHLQ $2, R8 // ldc in bytes

	// Each row's bias, broadcast into both of its accumulators; a row
	// past rows takes row 0's.
	VBROADCASTSS (R10), Y0
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y4
	VMOVAPS      Y0, Y6
	CMPQ         R9, $2
	JLT          halves
	VBROADCASTSS 4(R10), Y2
	CMPQ         R9, $3
	JLT          halves
	VBROADCASTSS 8(R10), Y4
	CMPQ         R9, $4
	JLT          halves
	VBROADCASTSS 12(R10), Y6

halves:
	VMOVAPS Y0, Y1
	VMOVAPS Y2, Y3
	VMOVAPS Y4, Y5
	VMOVAPS Y6, Y7

	// Rows 1-3's weights in R12, R13 and R10; a row past rows reads row 0's.
	MOVQ SI, R12
	MOVQ SI, R13
	MOVQ SI, R10
	CMPQ R9, $2
	JLT  start
	LEAQ (SI)(AX*1), R12
	CMPQ R9, $3
	JLT  start
	LEAQ (R12)(AX*1), R13
	CMPQ R9, $4
	JLT  start
	LEAQ (R13)(AX*1), R10

start:
	XORQ  R11, R11 // k
	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9

	VBROADCASTSS (SI)(R11*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y1, Y1

	VBROADCASTSS (R12)(R11*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y3, Y3

	VBROADCASTSS (R13)(R11*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y5, Y5

	VBROADCASTSS (R10)(R11*4), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       Y9, Y10, Y12
	VADDPS       Y12, Y7, Y7

	ADDQ BX, DI
	INCQ R11
	CMPQ R11, CX
	JLT  loop

store:
	VXORPS       Y13, Y13, Y13
	VBROADCASTSS slope+72(FP), Y14
	LEAKY(Y0)
	LEAKY(Y1)
	LEAKY(Y2)
	LEAKY(Y3)
	LEAKY(Y4)
	LEAKY(Y5)
	LEAKY(Y6)
	LEAKY(Y7)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	CMPQ    R9, $1
	JEQ     done
	ADDQ    R8, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	CMPQ    R9, $2
	JEQ     done
	ADDQ    R8, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	CMPQ    R9, $3
	JEQ     done
	ADDQ    R8, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)

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
