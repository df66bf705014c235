#include "textflag.h"

// func split2x32(even, odd, src unsafe.Pointer, n int)
//
// split2 for 4-byte elements, eight pairs a step, for n >= 8: two YMM of
// sixteen source words, VSHUFPS 0x88 (even words) and 0xDD (odd words)
// within each 128-bit lane, then VPERMPD 0xD8 to put the lanes' halves in
// order. The words move as bits; nothing reads them as floats. A
// remainder under eight is one more step backed up over pairs already
// written.
TEXT ·split2x32(SB), NOSPLIT, $0-32
	MOVQ even+0(FP), DI
	MOVQ odd+8(FP), SI
	MOVQ src+16(FP), DX
	MOVQ n+24(FP), CX

split32:
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VSHUFPS $0x88, Y1, Y0, Y2
	VSHUFPS $0xDD, Y1, Y0, Y3
	VPERMPD $0xD8, Y2, Y2
	VPERMPD $0xD8, Y3, Y3
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (SI)
	ADDQ    $64, DX
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JZ      done32
	CMPQ    CX, $8
	JGE     split32
	MOVQ    $8, AX // back up 8-CX pairs
	SUBQ    CX, AX
	SHLQ    $2, AX
	SUBQ    AX, DI
	SUBQ    AX, SI
	SUBQ    AX, DX
	SUBQ    AX, DX
	MOVQ    $8, CX
	JMP     split32

done32:
	VZEROUPPER
	RET

// VPSHUFB indices taking a 16-byte row's even bytes to the low half and
// its odd bytes to the high half.
DATA  split8idx<>+0(SB)/8, $0x0e0c0a0806040200
DATA  split8idx<>+8(SB)/8, $0x0f0d0b0907050301
GLOBL split8idx<>(SB), RODATA|NOPTR, $16

// func split2x8(even, odd, src unsafe.Pointer, n int)
//
// split2 for bytes, eight pairs a step, for n >= 8: one XMM of sixteen
// source bytes through VPSHUFB, its low half stored to even and its high
// half to odd. A remainder under eight is backed up as in split2x32.
TEXT ·split2x8(SB), NOSPLIT, $0-32
	MOVQ    even+0(FP), DI
	MOVQ    odd+8(FP), SI
	MOVQ    src+16(FP), DX
	MOVQ    n+24(FP), CX
	VMOVDQU split8idx<>(SB), X15

split8:
	VMOVDQU (DX), X0
	VPSHUFB X15, X0, X0
	VMOVQ   X0, (DI)
	VPEXTRQ $1, X0, (SI)
	ADDQ    $16, DX
	ADDQ    $8, DI
	ADDQ    $8, SI
	SUBQ    $8, CX
	JZ      done8
	CMPQ    CX, $8
	JGE     split8
	MOVQ    $8, AX // back up 8-CX pairs
	SUBQ    CX, AX
	SUBQ    AX, DI
	SUBQ    AX, SI
	SUBQ    AX, DX
	SUBQ    AX, DX
	MOVQ    $8, CX
	JMP     split8

done8:
	RET
