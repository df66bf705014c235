//go:build !amd64

package quant

// simd is false off amd64: every layer runs gemmPairs.
const simd = false

// gemmWords is never called where simd is false.
func gemmWords(aw []int32, b []int8, ldb int, acc []int32, M, K, nc int) {
	panic("quant: no SIMD int8 kernel on this GOARCH")
}
