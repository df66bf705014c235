package quant

//go:noescape
func quant8(dst *int8, src *float32, n int, s float32)

//go:noescape
func requant8(dst *int8, acc *int32, n int, rq, bq, slope float32)

//go:noescape
func madd4x16(w *int32, b *int8, ldb, k int, c *int32, ldc, rows int)

// gemmWords is gemmPairs' contract over packWords' layout: acc[m*nc+j] =
// sum_k qw[m*K+k]*b[k*ldb+j] in int32, for m in [0,M), j in [0,nc). It
// walks 4-row x 16-column tiles (madd4x16). The last tile of a row band
// is shifted left to end at column nc, recomputing a few columns with
// identical sums rather than reading past the panel; a block under 16
// columns wide is copied to a 16-wide panel from i8s and its tile comes
// back through i32s, so nothing is read or written out of bounds.
func gemmWords(aw []int32, b []int8, ldb int, acc []int32, M, K, nc int) {
	if K == 0 || M*nc == 0 {
		clear(acc[:M*nc])
		return
	}
	if nc < 16 {
		pad, tile := i8s.Get(K*16), i32s.Get(M*16)
		for k := range K {
			copy((*pad)[k*16:k*16+nc], b[k*ldb:k*ldb+nc])
		}
		gemmWords(aw, *pad, 16, *tile, M, K, 16)
		for m := range M {
			copy(acc[m*nc:(m+1)*nc], (*tile)[m*16:m*16+nc])
		}
		i8s.Put(pad)
		i32s.Put(tile)
		return
	}
	kw := (K + 1) / 2 * 4 // words per 4-row band
	_, _, _ = aw[(M+3)/4*kw-1], b[(K-1)*ldb+nc-1], acc[M*nc-1]
	for m := 0; m < M; m += 4 {
		for j := 0; j < nc; j += 16 {
			j = min(j, nc-16)
			madd4x16(&aw[m/4*kw], &b[j], ldb, K, &acc[m*nc+j], nc, min(M-m, 4))
		}
	}
}
