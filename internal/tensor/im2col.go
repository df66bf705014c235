package tensor

// im2col lowers convolution to matrix multiplication: the window under each
// output pixel becomes one column of a dense [kdim x pixels] panel that the
// weights [OutC x kdim] multiply (gemm.go), out-of-bounds taps written as
// explicit zeros so the GEMM inner loop has no bounds branches. Panels are
// built per column block, so scratch stays small and cache-resident.
//
// A block is gathered in two steps. First the input rows it reads are split
// into phase planes (space-to-depth), with the zero padding written in: for
// each row phase ph < min(kk, stride) and column tap kw, plane (ph, kw) of
// channel ic holds padded pixel ((oh0+r)*stride+ph, c*stride+kw) at row r,
// column c < OW, where oh0 is the block's first output row. Tap (kh, kw) of
// the window at output j = oh*OW+ow is then plane (kh%stride, kw) at row
// oh-oh0+kh/stride, column ow: element (kh/stride)*OW + j-oh0*OW, so over
// the block's consecutive j every panel row is one contiguous run of one
// plane, and the second step is one copy per panel row. Stride 1 is the
// same code with one row phase. Only planes with kw < stride are gathered
// from the input; plane (ph, kw) for kw >= stride is plane (ph, kw-stride)
// one column on, copied, with its last column read from the input.

// colScalar is the element type an im2col panel can hold: float32 for the
// float kernels, int8 for the quantised path (internal/quant).
type colScalar interface {
	~float32 | ~int8
}

// phaseShape returns the phase planes im2col builds for output pixels
// [j0, j1): np row phases (only those some tap reads) x kk column taps per
// channel, each rows x OW, n elements in all over C channels.
func phaseShape(C, kk, stride, OW, j0, j1 int) (np, rows, n int) {
	np = min(kk, stride)
	rows = (j1-1)/OW - j0/OW + 1 + (kk-1)/stride
	return np, rows, C * np * kk * rows * OW
}

// im2col writes the panel for output pixels [j0, j1) of one CHW item to
// dst as [kdim x (j1-j0)]: row (ic*kk+kh)*kk+kw holds tap (ic, kh, kw) of
// the window at (oh*stride-pad, ow*stride-pad), j = oh*OW+ow, and taps
// outside the input are zero. phase is scratch for the phase planes, at
// least phaseShape's n long. Every element of dst[:kdim*(j1-j0)] is
// written, and no element of phase is read before it is written.
func im2col[T colScalar](src []T, C, H, W, kk, stride, pad, OW, j0, j1 int, phase, dst []T) {
	np, pr, n := phaseShape(C, kk, stride, OW, j0, j1)
	phase = phase[:n]
	oh0 := j0 / OW
	p := 0 // plane (ic*np+ph)*kk+kw
	for ic := range C {
		for ph := range np {
			for kw := range kk {
				off := kw - pad // plane column c reads input column c*stride+off
				lo := min(max((stride-1-off)/stride, 0), OW)
				hi := max(min((W-off+stride-1)/stride, OW), lo)
				for r := range pr {
					out := phase[(p*pr+r)*OW:][:OW]
					ih := (oh0+r)*stride + ph - pad
					if uint(ih) >= uint(H) {
						clear(out)
						continue
					}
					row := src[(ic*H+ih)*W:][:W]
					if kw >= stride { // plane (ph, kw-stride) one column on
						copy(out, phase[((p-stride)*pr+r)*OW+1:][:OW-1])
						var v T
						if iw := (OW-1)*stride + off; uint(iw) < uint(W) {
							v = row[iw]
						}
						out[OW-1] = v
						continue
					}
					clear(out[:lo])
					if stride == 1 && lo < hi {
						copy(out[lo:hi], row[lo+off:])
					} else {
						for c, i := lo, lo*stride+off; c < hi; c, i = c+1, i+stride {
							out[c] = row[i]
						}
					}
					clear(out[hi:])
				}
				p++
			}
		}
	}
	nc, at := j1-j0, j0-oh0*OW
	r := 0 // panel row (ic*kk+kh)*kk+kw
	for ic := range C {
		for kh := range kk {
			for kw := range kk {
				p := (ic*np+kh%stride)*kk + kw
				copy(dst[r*nc:(r+1)*nc], phase[(p*pr+kh/stride)*OW+at:])
				r++
			}
		}
	}
}
