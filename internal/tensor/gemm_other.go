//go:build !amd64

package tensor

import "unsafe"

// SIMD is false off amd64: every layer runs the portable kernels.
const SIMD = false

// gemmTiles, split2x32 and split2x8 are never called where SIMD is false.
func gemmTiles(a []float32, lda int, bias, b []float32, ldb int, c []float32, ldc, M, K, nc int, slope float32) {
	panic("tensor: no SIMD float kernel on this GOARCH")
}

func split2x32(even, odd, src unsafe.Pointer, n int) {
	panic("tensor: no SIMD de-interleave on this GOARCH")
}

func split2x8(even, odd, src unsafe.Pointer, n int) {
	panic("tensor: no SIMD de-interleave on this GOARCH")
}
