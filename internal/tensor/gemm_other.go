//go:build !amd64

package tensor

// SIMD is false off amd64: every layer runs the portable kernels.
const SIMD = false

// gemmTiles is never called where SIMD is false.
func gemmTiles(a []float32, lda int, bias, b []float32, ldb int, c []float32, ldc, M, K, nc int) {
	panic("tensor: no SIMD float kernel on this GOARCH")
}
