#include "textflag.h"

// 16 bytes of 0xff, then 16 of zeros: loaded at tailmask<>+16-n, the low n
// byte lanes are set.
DATA  tailmask<>+0(SB)/8, $-1
DATA  tailmask<>+8(SB)/8, $-1
DATA  tailmask<>+16(SB)/8, $0
DATA  tailmask<>+24(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $32

// func unfilterRow(ft byte, cur, prev []byte, bpp int)
//
// unfilterGo for filter types 1-4 in SSE2, after libpng's
// intel/filter_sse2_intrinsics.c. Up adds prev to cur 16 bytes a step; its
// last step adds prev masked to the bytes left. Sub, Average and Paeth go
// one pixel a step: four bytes of cur and of prev are loaded, the predictor
// is masked to the pixel's bpp bytes (fewer for a partial last pixel), and
// four bytes are stored, so a byte past the pixel is written back as it was
// read. The next pixel of cur is loaded before that store: loaded after it,
// at bpp 3 it would partly overlap the store, which the CPU cannot forward
// to a load, and stall until the store completes. Both rows may be read 15
// bytes past len(cur); nothing past it changes.
TEXT ·unfilterRow(SB), NOSPLIT, $0-64
	MOVBQZX ft+0(FP), AX
	MOVQ    cur_base+8(FP), DI
	MOVQ    cur_len+16(FP), CX
	MOVQ    prev_base+32(FP), SI
	MOVQ    bpp+56(FP), DX
	LEAQ    tailmask<>+16(SB), R8
	TESTQ   CX, CX
	JZ      done
	CMPQ    AX, $2
	JEQ     up
	MOVQ    R8, BX
	SUBQ    DX, BX
	MOVL    (BX), X6 // the pixel's lanes of the predictor
	PXOR    X0, X0
	PXOR    X1, X1   // a, the pixel to the left, unfiltered (zero for the first)
	PXOR    X2, X2   // c, the pixel above a (Paeth)
	MOVL    (DI), X12 // the pixel of cur, as filtered
	CMPQ    AX, $1
	JEQ     sub
	CMPQ    AX, $3
	JEQ     avg
	PCMPEQW X13, X13
	PSRLW   $8, X13  // 0x00ff in each 16-bit lane

paeth: // predict whichever of a, b, c is nearest a+b-c, ties to a then b
	CMPQ      CX, DX
	JGE       paethpix
	MOVQ      R8, BX
	SUBQ      CX, BX
	MOVL      (BX), X6
paethpix:
	MOVL      (SI), X3
	PUNPCKLBW X0, X3   // b, the pixel above, in 16-bit lanes as a and c are
	MOVO      X12, X14
	PUNPCKLBW X0, X14  // the pixel, filtered
	MOVO      X3, X4
	PSUBW     X2, X4   // b-c, then pa = |b-c|
	MOVO      X1, X5
	PSUBW     X2, X5   // a-c, then pb = |a-c|
	MOVO      X4, X7
	PADDW     X5, X7   // a+b-2c, then pc = |a+b-2c|
	MOVO      X0, X8
	PSUBW     X4, X8
	PMAXSW    X8, X4
	MOVO      X0, X8
	PSUBW     X5, X8
	PMAXSW    X8, X5
	MOVO      X0, X8
	PSUBW     X7, X8
	PMAXSW    X8, X7
	MOVO      X5, X8
	PMINSW    X7, X8
	PCMPGTW   X8, X4   // pa > min(pb, pc): not a
	PCMPGTW   X7, X5   // pb > pc: c, not b
	MOVO      X5, X9
	PAND      X2, X9
	PANDN     X3, X5
	POR       X9, X5   // pb > pc ? c : b
	PAND      X4, X5
	PANDN     X1, X4
	POR       X5, X4   // the nearest
	PADDW     X14, X4
	PAND      X13, X4  // the pixel, unfiltered: a for the next
	MOVO      X4, X1
	PACKUSWB  X4, X4
	PAND      X6, X4
	MOVO      X6, X9
	PANDN     X12, X9
	POR       X9, X4   // past the pixel's lanes, cur as it was
	MOVL      (DI)(DX*1), X12
	MOVL      X4, (DI)
	MOVO      X3, X2
	ADDQ      DX, DI
	ADDQ      DX, SI
	SUBQ      DX, CX
	JG        paeth
	RET

sub: // predict a
	CMPQ  CX, DX
	JGE   subpix
	MOVQ  R8, BX
	SUBQ  CX, BX
	MOVL  (BX), X6
subpix:
	PAND  X6, X1
	PADDB X12, X1
	MOVL  (DI)(DX*1), X12
	MOVL  X1, (DI)
	ADDQ  DX, DI
	SUBQ  DX, CX
	JG    sub
	RET

avg: // predict (a+b)/2, rounded down
	MOVL  $0x01010101, AX
	MOVL  AX, X7
avgloop:
	CMPQ  CX, DX
	JGE   avgpix
	MOVQ  R8, BX
	SUBQ  CX, BX
	MOVL  (BX), X6
avgpix:
	MOVL  (SI), X3
	MOVO  X1, X4
	PAVGB X3, X4   // (a+b+1)/2
	PXOR  X3, X1
	PAND  X7, X1
	PSUBB X1, X4   // less 1 where a+b is odd
	PAND  X6, X4
	MOVO  X12, X1
	PADDB X4, X1
	MOVL  (DI)(DX*1), X12
	MOVL  X1, (DI)
	ADDQ  DX, DI
	ADDQ  DX, SI
	SUBQ  DX, CX
	JG    avgloop
	RET

up: // predict b
	CMPQ  CX, $16
	JLT   uptail
	MOVOU (DI), X0
	MOVOU (SI), X1
	PADDB X1, X0
	MOVOU X0, (DI)
	ADDQ  $16, DI
	ADDQ  $16, SI
	SUBQ  $16, CX
	JNZ   up
	RET
uptail:
	SUBQ  CX, R8
	MOVOU (R8), X2
	MOVOU (DI), X0
	MOVOU (SI), X1
	PAND  X2, X1
	PADDB X1, X0
	MOVOU X0, (DI)

done:
	RET

// adler32Blocks' PMADDWD weights: each byte's distance from the end of its
// 32-byte step, 32 down to 1, as 16-bit words.
DATA  adlerw<>+0(SB)/8, $0x001d001e001f0020
DATA  adlerw<>+8(SB)/8, $0x0019001a001b001c
DATA  adlerw<>+16(SB)/8, $0x0015001600170018
DATA  adlerw<>+24(SB)/8, $0x0011001200130014
DATA  adlerw<>+32(SB)/8, $0x000d000e000f0010
DATA  adlerw<>+40(SB)/8, $0x0009000a000b000c
DATA  adlerw<>+48(SB)/8, $0x0005000600070008
DATA  adlerw<>+56(SB)/8, $0x0001000200030004
GLOBL adlerw<>(SB), RODATA|NOPTR, $64

// func adler32Blocks(p []byte) (sum, wsum, psum uint32)
//
// 32 bytes a step: PSADBW against zero sums each 8 bytes into a 64-bit
// lane (sum); the bytes, widened to 16-bit words, are multiplied by their
// weights and added in pairs by PMADDWD into four 32-bit lanes (wsum);
// before each step the sum so far is added to psum. The lanes are added
// across at the end. All arithmetic is mod 2^32.
TEXT ·adler32Blocks(SB), NOSPLIT, $0-36
	MOVQ  p_base+0(FP), SI
	MOVQ  p_len+8(FP), CX
	SHRQ  $5, CX
	PXOR  X0, X0
	PXOR  X1, X1 // sum
	PXOR  X2, X2 // wsum
	PXOR  X3, X3 // psum
	MOVOU adlerw<>+0(SB), X8
	MOVOU adlerw<>+16(SB), X9
	MOVOU adlerw<>+32(SB), X10
	MOVOU adlerw<>+48(SB), X11
	TESTQ CX, CX
	JZ    sums

step:
	MOVOU     (SI), X4
	MOVOU     16(SI), X5
	PADDL     X1, X3
	MOVO      X4, X6
	PSADBW    X0, X6
	PADDL     X6, X1
	MOVO      X5, X7
	PSADBW    X0, X7
	PADDL     X7, X1
	MOVO      X4, X6
	PUNPCKLBW X0, X6
	PMADDWL   X8, X6
	PADDL     X6, X2
	PUNPCKHBW X0, X4
	PMADDWL   X9, X4
	PADDL     X4, X2
	MOVO      X5, X7
	PUNPCKLBW X0, X7
	PMADDWL   X10, X7
	PADDL     X7, X2
	PUNPCKHBW X0, X5
	PMADDWL   X11, X5
	PADDL     X5, X2
	ADDQ      $32, SI
	DECQ      CX
	JNZ       step

sums:
	PSHUFD $0x4e, X1, X4
	PADDL  X4, X1
	MOVQ   X1, AX
	MOVL   AX, sum+24(FP)
	PSHUFD $0x4e, X2, X4
	PADDL  X4, X2
	PSHUFD $0xb1, X2, X4
	PADDL  X4, X2
	MOVQ   X2, AX
	MOVL   AX, wsum+28(FP)
	PSHUFD $0x4e, X3, X4
	PADDL  X4, X3
	MOVQ   X3, AX
	MOVL   AX, psum+32(FP)
	RET
