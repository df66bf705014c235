package tensor

// im2col lowers convolution to matrix multiplication: the window under each
// output pixel becomes one column of a dense [kdim x pixels] panel that the
// weights [OutC x kdim] multiply (gemm.go), out-of-bounds taps written as
// explicit zeros so the GEMM inner loop has no bounds branches. Panels are
// built per column block, so scratch stays small and cache-resident.

// colScalar is the element type an im2col panel can hold: float32 for the
// float kernels, int8 for the quantised path (internal/quant).
type colScalar interface {
	~float32 | ~int8
}

// im2col writes the panel for output pixels [j0, j1) of one CHW item to
// dst as [kdim x (j1-j0)]: row (ic*kk+kh)*kk+kw holds tap (ic, kh, kw) of
// the window at (oh*stride-pad, ow*stride-pad), j = oh*OW+ow, and taps
// outside the input are zero. Every element of dst[:kdim*(j1-j0)] is
// written. A block may start and end mid-row, so each panel row is walked
// one output row at a time: at stride 1 a contiguous copy with zeroed
// edges, otherwise a bounds-checked loop.
func im2col[T colScalar](src []T, C, H, W, kk, stride, pad, OW, j0, j1 int, dst []T) {
	nc := j1 - j0
	for r := range C * kk * kk {
		ic, kh, kw := r/(kk*kk), r/kk%kk, r%kk
		out := dst[r*nc : (r+1)*nc]
		for j := j0; j < j1; {
			oh, ow := j/OW, j%OW
			seg := out[j-j0:][:min(OW-ow, j1-j)]
			j += len(seg)
			ih := oh*stride - pad + kh
			if uint(ih) >= uint(H) {
				clear(seg)
				continue
			}
			row := src[(ic*H+ih)*W:][:W]
			iw := ow*stride - pad + kw // seg[i] reads row[iw+i*stride]
			if stride == 1 {
				lo := min(max(-iw, 0), len(seg))
				hi := max(min(W-iw, len(seg)), lo)
				clear(seg[:lo])
				if lo < hi {
					copy(seg[lo:hi], row[iw+lo:])
				}
				clear(seg[hi:])
				continue
			}
			for i := range seg {
				var v T
				if uint(iw) < uint(W) {
					v = row[iw]
				}
				seg[i] = v
				iw += stride
			}
		}
	}
}
