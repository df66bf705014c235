package tensor

// Cache-blocked SGEMM specialised for im2col convolution: C = A*B + bias,
// where A is the weight matrix [M x K] (M = output channels, K = InC*k*k),
// B is an im2col panel [K x nc] for one block of output pixels, and C is the
// corresponding slice of the output feature map. This is the only float
// convolution kernel: every shape, down to the 3x5 AGO head grid, lowers
// through it (a 1x1/s1/p0 convolution skips im2col altogether — the panel is
// the input). The kernel is register tiled 4x4 with a single accumulator per
// output element and k strictly ascending, so every C element is the sum
// bias + w0*x0 + w1*x1 + ... in exactly the order a direct nested loop
// computes it — bit-identical to the direct-loop oracle in gemm_test.go, not
// merely close (padding taps contribute w*0, which cannot change a float
// sum).
//
// Work is split into (batch item, column block) tasks dispatched through
// ParallelForCancel, preserving the between-block cancellation checkpoints
// the context-aware request path relies on: one task is a few hundred
// microseconds, far inside the one-conv-layer abort budget.

// convSpec is the geometry a lowered convolution shares between the float
// and fused entry points.
type convSpec struct {
	inC, outC, kk, stride, pad int
}

// ColBlock picks the column-block width for both precisions' GEMM (the int8
// one lives in internal/quant): panels are capped near 32k elements (128 KiB
// of float32, 32 KiB of int8) so a block stays cache-resident across the
// row-tile sweeps, with a floor of 16 and a multiple of 4 to keep the
// register tiles full.
func ColBlock(kdim, cols int) int {
	b := (1 << 15) / kdim
	if b > cols {
		b = cols
	}
	if b < 16 {
		b = 16
	}
	return b &^ 3
}

// convGemmInto computes y = conv(x; w, bias) for every batch item via
// im2col + blocked GEMM. w is [outC][inC*kk*kk] row-major, bias is [outC].
// When act is set, the leaky-ReLU epilogue (negative slope) is applied to
// each output tile while it is still cache-hot — the fusion hook that turns
// a ConvBNAct block into one pass. labIn holds x's position labels (nil:
// none, the search labels its own), and a non-nil labOut receives y's (see
// LabelBlock), both N items of one int32 per pixel. Scratch panels come
// from p (nil p allocates fresh); done adds a cooperative cancellation
// checkpoint between column blocks.
func convGemmInto(x, y *Tensor, spec convSpec, w, bias []float32, act bool, slope float32, labIn, labOut []int32, p *Pool, done <-chan struct{}) {
	N := x.Shape[0]
	OH, OW := y.Shape[2], y.Shape[3]
	cols := OH * OW
	kdim := spec.inC * spec.kk * spec.kk
	blk := ColBlock(kdim, cols)
	nBlocks := (cols + blk - 1) / blk
	tasks := N * nBlocks
	tabs := NewLabelTables(labOut, cols)
	if ParallelWorthwhile(N * spec.outC * cols * kdim) {
		ParallelForCancel(done, tasks, func(t int) {
			convGemmTask(x, y, spec, w, bias, act, slope, labIn, labOut, tabs, p, blk, nBlocks, t)
		})
	} else {
		for t := 0; t < tasks && !Aborted(done); t++ {
			convGemmTask(x, y, spec, w, bias, act, slope, labIn, labOut, tabs, p, blk, nBlocks, t)
		}
	}
	tabs.Free()
}

// convGemmTask runs one (batch item, column block) unit: unpack the distinct
// panel columns, multiply, apply the epilogue, spread the results (see
// DistinctPanel), label them when labels are wanted. Tasks write disjoint
// column ranges of y and labOut.
func convGemmTask(x, y *Tensor, spec convSpec, w, bias []float32, act bool, slope float32, labIn, labOut []int32, tabs LabelTables, p *Pool, blk, nBlocks, t int) {
	n, b := t/nBlocks, t%nBlocks
	C, H, W := x.Shape[1], x.Shape[2], x.Shape[3]
	OW := y.Shape[3]
	cols := y.Shape[2] * OW
	kdim := spec.inC * spec.kk * spec.kk
	j0 := b * blk
	j1 := min(j0+blk, cols)
	nc, u := j1-j0, j1-j0
	buf := idxScratch.Get(nc)
	rep := *buf
	if labOut != nil { // the rep map is the block's share of labOut
		rep = labOut[n*cols+j0 : n*cols+j1]
	}
	outBase := n * spec.outC * cols
	if spec.kk == 1 && spec.stride == 1 && spec.pad == 0 {
		// 1x1 stride-1 convolution: the im2col panel is the input itself.
		bp := x.Data[n*C*cols+j0:]
		gemmBlock(w, kdim, bias, bp, cols, y.Data[outBase+j0:], cols, spec.outC, kdim, nc)
		for i := range rep {
			rep[i] = int32(i)
		}
	} else {
		panel := p.Get(kdim, nc)
		// The item's labels lead labIn[n*H*W:]; a nil labIn stays nil.
		u = DistinctPanel(x.Data[n*C*H*W:(n+1)*C*H*W], labIn[min(n*H*W, len(labIn)):], C, H, W, spec.kk, spec.stride, spec.pad, OW, j0, j1, panel.Data, rep)
		gemmBlock(w, kdim, bias, panel.Data, u, y.Data[outBase+j0:], cols, spec.outC, kdim, u)
		p.Put(panel)
	}
	for oc := 0; oc < spec.outC; oc++ {
		row := y.Data[outBase+oc*cols+j0 : outBase+oc*cols+j1]
		if act {
			for i, v := range row[:u] {
				if v < 0 {
					row[i] = slope * v
				}
			}
		}
		if u < nc {
			SpreadCols(row, rep)
		}
	}
	if labOut != nil {
		LabelBlock(tabs, n, y.Data[outBase:outBase+spec.outC*cols], cols, j0, rep)
	}
	idxScratch.Put(buf)
}

// gemmBlock computes c[m*ldc+j] = bias[m] + sum_k a[m*lda+k]*b[k*ldb+j] for
// m in [0,M), j in [0,nc). The 4x4 register tile keeps sixteen independent
// accumulator chains live per k step; row and column tails fall back to
// narrower tiles with the same k-ascending accumulation order.
func gemmBlock(a []float32, lda int, bias []float32, b []float32, ldb int, c []float32, ldc, M, K, nc int) {
	m := 0
	for ; m+4 <= M; m += 4 {
		a0 := a[(m+0)*lda : (m+0)*lda+K]
		a1 := a[(m+1)*lda : (m+1)*lda+K]
		a2 := a[(m+2)*lda : (m+2)*lda+K]
		a3 := a[(m+3)*lda : (m+3)*lda+K]
		bi0, bi1, bi2, bi3 := bias[m], bias[m+1], bias[m+2], bias[m+3]
		j := 0
		for ; j+4 <= nc; j += 4 {
			c00, c01, c02, c03 := bi0, bi0, bi0, bi0
			c10, c11, c12, c13 := bi1, bi1, bi1, bi1
			c20, c21, c22, c23 := bi2, bi2, bi2, bi2
			c30, c31, c32, c33 := bi3, bi3, bi3, bi3
			off := j
			for k := 0; k < K; k++ {
				b0, b1, b2, b3 := b[off], b[off+1], b[off+2], b[off+3]
				av := a0[k]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[k]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				av = a2[k]
				c20 += av * b0
				c21 += av * b1
				c22 += av * b2
				c23 += av * b3
				av = a3[k]
				c30 += av * b0
				c31 += av * b1
				c32 += av * b2
				c33 += av * b3
				off += ldb
			}
			r := (m+0)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = c00, c01, c02, c03
			r = (m+1)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = c10, c11, c12, c13
			r = (m+2)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = c20, c21, c22, c23
			r = (m+3)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = c30, c31, c32, c33
		}
		for ; j < nc; j++ {
			cc0, cc1, cc2, cc3 := bi0, bi1, bi2, bi3
			off := j
			for k := 0; k < K; k++ {
				bv := b[off]
				cc0 += a0[k] * bv
				cc1 += a1[k] * bv
				cc2 += a2[k] * bv
				cc3 += a3[k] * bv
				off += ldb
			}
			c[(m+0)*ldc+j] = cc0
			c[(m+1)*ldc+j] = cc1
			c[(m+2)*ldc+j] = cc2
			c[(m+3)*ldc+j] = cc3
		}
	}
	for ; m < M; m++ {
		arow := a[m*lda : m*lda+K]
		bi := bias[m]
		j := 0
		for ; j+4 <= nc; j += 4 {
			cc0, cc1, cc2, cc3 := bi, bi, bi, bi
			off := j
			for k := 0; k < K; k++ {
				av := arow[k]
				cc0 += av * b[off]
				cc1 += av * b[off+1]
				cc2 += av * b[off+2]
				cc3 += av * b[off+3]
				off += ldb
			}
			r := m*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = cc0, cc1, cc2, cc3
		}
		for ; j < nc; j++ {
			acc := bi
			off := j
			for k := 0; k < K; k++ {
				acc += arow[k] * b[off]
				off += ldb
			}
			c[m*ldc+j] = acc
		}
	}
}
