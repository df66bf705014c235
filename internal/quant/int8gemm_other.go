//go:build !amd64

package quant

// quant8, requant8 and gemmWords are never called where tensor.SIMD is
// false.
func quant8(dst *int8, src *float32, n int, s float32) {
	panic("quant: no SIMD quantiser on this GOARCH")
}

func requant8(dst *int8, acc *int32, n int, rq, bq, slope float32) {
	panic("quant: no SIMD requantiser on this GOARCH")
}

func gemmWords(aw []int32, b []int8, ldb int, acc []int32, M, K, nc int) {
	panic("quant: no SIMD int8 kernel on this GOARCH")
}
