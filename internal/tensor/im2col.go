package tensor

import "unsafe"

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
// same code with one row phase.
//
// Each (channel, row phase) finds once which of its plane rows lie in the
// padding and clears them. Only planes with kw < stride are gathered from
// the input: a copy per row at stride 1, a strided loop per row otherwise,
// except that at stride 2 on amd64 one de-interleave of each input row
// (split2: even elements to plane (ph, 0), odd ones to plane (ph, 1))
// fills the columns the two planes share in one pass and the loop does
// only the edge columns. Plane (ph, kw) for kw >= stride is plane
// (ph, kw-stride) one column on: one copy of the whole plane, then each
// row's last column read from the input.

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
	oh0, size := j0/OW, pr*OW
	gathered := min(kk, stride) // planes (ph, kw < stride) read the input
	c0, c1 := 0, 0              // columns split2 fills in planes (ph, 0) and (ph, 1)
	if SIMD && stride == 2 && kk >= 2 {
		lo0, hi0 := span(-pad, stride, W, OW)
		lo1, hi1 := span(1-pad, stride, W, OW)
		if c0, c1 = max(lo0, lo1), min(hi0, hi1); c1-c0 < 8 {
			c0, c1 = 0, 0
		}
	}
	for ic := range C {
		for ph := range np {
			p := (ic*np + ph) * kk // plane (ph, 0)
			// Plane rows [rlo, rhi) read input row (oh0+r)*stride+ph-pad;
			// the rest lie in the padding.
			rlo := min(max((pad-ph+stride-1)/stride-oh0, 0), pr)
			rhi := max(min((H+pad-ph+stride-1)/stride-oh0, pr), rlo)
			in, step := (ic*H+oh0*stride+ph-pad)*W, stride*W // input row of plane row 0, and the step between rows
			if c1 > 0 {
				for r := rlo; r < rhi; r++ {
					at := p*size + r*OW
					split2(phase[at+c0:at+c1], phase[at+size+c0:at+size+c1], src[in+r*step+2*c0-pad:])
				}
			}
			for kw := range gathered {
				plane := phase[(p+kw)*size:][:size]
				clear(plane[:rlo*OW])
				clear(plane[rhi*OW:])
				off := kw - pad
				lo, hi := span(off, stride, W, OW)
				a, b := hi, hi // split2 wrote [a, b); this reads [lo, a) and [b, hi)
				if c1 > 0 {
					a, b = c0, c1
				}
				for r := rlo; r < rhi; r++ {
					out := plane[r*OW:][:OW]
					clear(out[:lo])
					clear(out[hi:])
					if lo == a && b == hi {
						continue
					}
					row := src[in+r*step:][:W]
					if stride == 1 {
						copy(out[lo:a], row[lo+off:])
					} else {
						gatherCols(out, row, lo, a, stride, off)
						gatherCols(out, row, b, hi, stride, off)
					}
				}
			}
			// Plane (ph, kw >= stride) is plane (ph, kw-stride) one column
			// on, copied whole, with each row's last column then read from
			// the input.
			for kw := stride; kw < kk; kw++ {
				plane := phase[(p+kw)*size:][:size]
				copy(plane, phase[(p+kw-stride)*size+1:][:size-1])
				iw := (OW-1)*stride + kw - pad
				for r := range pr {
					var v T
					if r >= rlo && r < rhi && uint(iw) < uint(W) {
						v = src[in+r*step+iw]
					}
					plane[r*OW+OW-1] = v
				}
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

// span returns the columns [lo, hi) of a plane whose column c reads input
// column c*stride+off inside [0, W); columns outside it lie in the padding.
func span(off, stride, W, OW int) (lo, hi int) {
	lo = min(max((stride-1-off)/stride, 0), OW)
	return lo, max(min((W-off+stride-1)/stride, OW), lo)
}

// gatherCols writes out[c] = row[c*stride+off] for c in [lo, hi): the
// portable gather, and the SIMD path's edge columns.
func gatherCols[T colScalar](out, row []T, lo, hi, stride, off int) {
	for c, i := lo, lo*stride+off; c < hi; c, i = c+1, i+stride {
		out[c] = row[i]
	}
}

// split2 de-interleaves src into its even and odd elements: even[i] =
// src[2i] and odd[i] = src[2i+1] for i < len(even), with len(odd) ==
// len(even) >= 8 and len(src) >= 2*len(even). It runs eight pairs a step
// (split2x32, split2x8 in im2col_amd64.s) and only where SIMD holds, so a
// stride-2 input row fills two column phases in one pass.
func split2[T colScalar](even, odd, src []T) {
	n := len(even)
	_, _ = odd[n-1], src[2*n-1]
	e, o, s := unsafe.Pointer(&even[0]), unsafe.Pointer(&odd[0]), unsafe.Pointer(&src[0])
	if unsafe.Sizeof(even[0]) == 4 {
		split2x32(e, o, s, n)
	} else {
		split2x8(e, o, s, n)
	}
}
