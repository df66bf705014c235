package tensor

import "unsafe"

// SIMD reports that this CPU runs the AVX2 kernels, gemmTiles and split2
// here and the int8 ones in internal/quant: CPUID lists AVX2 and the OS saves the YMM
// registers (XCR0 bits 1 and 2). It is read once, at package init; nothing
// else selects a kernel.
var SIMD = func() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}()

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (xcr0 uint32)

//go:noescape
func mul4x16(a *float32, lda int, bias *float32, b *float32, ldb, k int, c *float32, ldc, rows int, slope float32)

// gemmTiles is gemmBlock's contract in 4-row x 16-column tiles (mul4x16),
// with gemmBlock's bits: each output is its bias plus the products in k
// order, rounded after every multiply and every add, then leaky at slope.
// The last tile of a row band is shifted left to end at column nc,
// recomputing a few columns with identical sums rather than reading past
// the panel; a block under 16 columns wide is copied to a 16-wide panel and
// its tile comes back through f32Panels, so nothing is read or written out
// of bounds.
func gemmTiles(a []float32, lda int, bias, b []float32, ldb int, c []float32, ldc, M, K, nc int, slope float32) {
	if K == 0 || M*nc == 0 { // no products: the bias alone, or nothing
		gemmBlock(a, lda, bias, b, ldb, c, ldc, M, K, nc, slope)
		return
	}
	if nc < 16 {
		pad, tile := f32Panels.Get(K*16), f32Panels.Get(M*16)
		for k := range K {
			row := (*pad)[k*16 : k*16+16]
			copy(row, b[k*ldb:k*ldb+nc])
			clear(row[nc:])
		}
		gemmTiles(a, lda, bias, *pad, 16, *tile, 16, M, K, 16, slope)
		for m := range M {
			copy(c[m*ldc:m*ldc+nc], (*tile)[m*16:m*16+nc])
		}
		f32Panels.Put(pad)
		f32Panels.Put(tile)
		return
	}
	_, _, _, _ = a[(M-1)*lda+K-1], bias[M-1], b[(K-1)*ldb+nc-1], c[(M-1)*ldc+nc-1]
	for m := 0; m < M; m += 4 {
		for j := 0; j < nc; j += 16 {
			j = min(j, nc-16)
			mul4x16(&a[m*lda], lda, &bias[m], &b[j], ldb, K, &c[m*ldc+j], ldc, min(M-m, 4), slope)
		}
	}
}

// split2's kernels, for 4-byte and 1-byte elements (im2col_amd64.s).
//
//go:noescape
func split2x32(even, odd, src unsafe.Pointer, n int)

//go:noescape
func split2x8(even, odd, src unsafe.Pointer, n int)
