package tensor

import "fmt"

// Cache-blocked SGEMM specialised for im2col convolution: C =
// leaky(A*B + bias), where A is the weight matrix [M x K] (M = output
// channels, K = InC*k*k), B is an im2col panel [K x nc] for one block of
// output pixels, and C is the corresponding slice of the output feature
// map. gemm is the one float
// GEMM every float convolution calls, training's forward included: every
// shape, down to the 3x5 AGO head grid, lowers through it (a 1x1/s1/p0
// convolution skips im2col altogether — the panel is the input). It picks
// its kernel once, from CPUID (SIMD): on amd64 with AVX2, gemmTiles
// (gemm_amd64.s), 4x16 tiles of eight-wide VMULPS then VADDPS; everywhere
// else gemmBlock, 4x4 scalar tiles, which is also the tests' oracle. Both
// keep a single accumulator per output element, start it at the bias and
// run k strictly ascending, rounding after every multiply and every add
// (no fused multiply-add: gemmBlock converts each product to float32,
// which the Go spec says no compiler may fuse), so every C element is the
// sum bias + w0*x0 + w1*x1 + ... in exactly the order a direct nested loop
// computes it — bit-identical to the direct-loop oracle in gemm_test.go on
// every GOARCH and CPU, not merely close (padding taps contribute w*0,
// which cannot change a float sum). Both then apply the leaky-ReLU to each
// sum as they store it, at the slope the caller passes: the fused blocks'
// activation, or 1 for a plain convolution, which leaves every bit as it
// is.
//
// Conv runs every convolution in the tree, both precisions: it gathers each
// column block's dense panel (im2col.go) and the precision's ConvKernel
// multiplies every column of it and applies the epilogue (the float kernels
// are Conv2D and FusedConvBNAct, the int8 ones live in internal/quant).
// Work is split into (batch item, column block) tasks dispatched through
// ParallelForCancel, preserving the between-block cancellation checkpoints
// the context-aware request path relies on: one task is a few hundred
// microseconds, far inside the one-conv-layer abort budget.

// ConvGeom is a convolution's geometry: InC input channels, OutC output
// channels, K x K kernels at the given stride and zero padding.
type ConvGeom struct{ InC, OutC, K, Stride, Pad int }

// OutSize returns the spatial output size for an input of size (h, w).
func (g ConvGeom) OutSize(h, w int) (int, int) {
	return (h+2*g.Pad-g.K)/g.Stride + 1, (w+2*g.Pad-g.K)/g.Stride + 1
}

// Geom returns g; a kernel embedding ConvGeom gets it promoted.
func (g ConvGeom) Geom() ConvGeom { return g }

// ConvKernel is one precision's convolution: its geometry, and Block, which
// multiplies the u columns of panel (InC*K*K rows, ldb apart) by the weights
// and writes the epilogued OutC x u results to y, rows ldc apart.
type ConvKernel[In, Out colScalar] interface {
	Geom() ConvGeom
	Block(panel []In, ldb int, y []Out, ldc, u int)
}

// ColBlock picks the column-block width for both precisions' GEMM: panels
// are capped near 32k elements (128 KiB of float32, 32 KiB of int8) so a
// block stays cache-resident across the row-tile sweeps, with a floor of 16
// and a multiple of 4 to keep the register tiles full.
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

// Conv computes y = k(x) for the N items of x, each InC x H x W, into y,
// N items of OutC x OH x OW. done adds a cooperative cancellation
// checkpoint between column blocks: once it closes, y is partially written
// and must be discarded. A kernel with pointer receivers keeps the serial
// path allocation-free.
func Conv[In, Out colScalar, K ConvKernel[In, Out]](k K, x []In, N, H, W int, y []Out, done <-chan struct{}) {
	g := k.Geom()
	if len(x) != N*g.InC*H*W {
		panic(fmt.Sprintf("tensor: conv expects %d input channels, got %d values for %d items of %dx%d", g.InC, len(x), N, H, W))
	}
	OH, OW := g.OutSize(H, W)
	cols := OH * OW
	kdim := g.InC * g.K * g.K
	blk := ColBlock(kdim, cols)
	nBlocks := (cols + blk - 1) / blk
	tasks := N * nBlocks
	if ParallelWorthwhile(N * g.OutC * cols * kdim) {
		ParallelForCancel(done, tasks, func(t int) {
			convTask(k, g, x, H, W, y, blk, nBlocks, t)
		})
	} else {
		for t := 0; t < tasks && !Aborted(done); t++ {
			convTask(k, g, x, H, W, y, blk, nBlocks, t)
		}
	}
}

// Walk runs a two-headed detector over the N items of x, each H x W: the
// blocks in order, the fine head reading blocks[tap]'s input and the coarse
// head the last block's output. It is the inference forward of both
// precisions. The intermediates recycle through acts and x stays the
// caller's; the head maps come from p and are the caller's to Put. done is
// polled between column blocks (see Conv) and after every conv: on abort ok
// is false, the maps are nil and every buffer is back where it came from.
func Walk[T colScalar, B ConvKernel[T, T], Hd ConvKernel[T, float32]](blocks []B, tap int, fine, coarse Hd, x []T, N, H, W int, acts *Scratch[T], p *Pool, done <-chan struct{}) (f, c *Tensor, ok bool) {
	var cur *[]T // x's successor, from acts
	for i, b := range blocks {
		if i == tap {
			f = forward(fine, x, N, H, W, p, done)
		}
		g := b.Geom()
		oh, ow := g.OutSize(H, W)
		nxt := acts.Get(N * g.OutC * oh * ow)
		Conv(b, x, N, H, W, *nxt, done)
		if cur != nil {
			acts.Put(cur)
		}
		cur, x, H, W = nxt, *nxt, oh, ow
		if Aborted(done) {
			break
		}
	}
	if !Aborted(done) {
		c = forward(coarse, x, N, H, W, p, done)
	}
	acts.Put(cur)
	if Aborted(done) {
		p.Put(f)
		p.Put(c)
		return nil, nil, false
	}
	return f, c, true
}

// direct reports a 1x1 stride-1 unpadded convolution, whose im2col panel
// is the input itself.
func (g ConvGeom) direct() bool { return g.K == 1 && g.Stride == 1 && g.Pad == 0 }

// convTask runs one (batch item, column block) unit: gather the block's
// panel (im2col, through phase planes from the same scratch), then
// multiply all of its columns and apply the epilogue (k.Block). Tasks
// write disjoint column ranges of y.
func convTask[In, Out colScalar, K ConvKernel[In, Out]](k K, g ConvGeom, x []In, H, W int, y []Out, blk, nBlocks, t int) {
	n, b := t/nBlocks, t%nBlocks
	OH, OW := g.OutSize(H, W)
	cols, kdim := OH*OW, g.InC*g.K*g.K
	j0 := b * blk
	nc := min(j0+blk, cols) - j0
	item, out := x[n*g.InC*H*W:(n+1)*g.InC*H*W], y[n*g.OutC*cols+j0:]
	if g.direct() {
		k.Block(item[j0:], cols, out, cols, nc)
		return
	}
	ps := panelScratch[In]()
	_, _, pn := phaseShape(g.InC, g.K, g.Stride, OW, j0, j0+nc)
	phase, panel := ps.Get(pn), ps.Get(kdim*nc)
	im2col(item, g.InC, H, W, g.K, g.Stride, g.Pad, OW, j0, j0+nc, *phase, *panel)
	ps.Put(phase)
	k.Block(*panel, nc, out, cols, nc)
	ps.Put(panel)
}

var f32Panels Scratch[float32]
var i8Panels Scratch[int8]

// panelScratch is where T's im2col panels recycle.
func panelScratch[T colScalar]() *Scratch[T] {
	if s, ok := any(&f32Panels).(*Scratch[T]); ok {
		return s
	}
	return any(&i8Panels).(*Scratch[T])
}

// gemm computes c[m*ldc+j] = leaky(bias[m] + sum_k a[m*lda+k]*b[k*ldb+j],
// slope) for m in [0,M), j in [0,nc), with the kernel SIMD picked. Slope 1
// is the plain GEMM: every value keeps its bits.
func gemm(a []float32, lda int, bias []float32, b []float32, ldb int, c []float32, ldc, M, K, nc int, slope float32) {
	if SIMD {
		gemmTiles(a, lda, bias, b, ldb, c, ldc, M, K, nc, slope)
	} else {
		gemmBlock(a, lda, bias, b, ldb, c, ldc, M, K, nc, slope)
	}
}

// leaky is the leaky-ReLU both GEMM kernels apply as they store: a value
// below zero takes slope*v, and anything else, -0 and NaN included, keeps
// its bits.
func leaky(v, slope float32) float32 {
	if v < 0 {
		return slope * v
	}
	return v
}

// gemmBlock is gemm's portable kernel and the oracle of gemmTiles. The 4x4
// register tile keeps sixteen independent accumulator chains live per k
// step; row and column tails fall back to narrower tiles with the same
// k-ascending accumulation order. Every product is converted to float32
// before it is added, so no GOARCH fuses the two roundings into one (arm64
// would emit FMADDS). The activation runs on each sum as it is stored.
func gemmBlock(a []float32, lda int, bias []float32, b []float32, ldb int, c []float32, ldc, M, K, nc int, slope float32) {
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
				c00 += float32(av * b0)
				c01 += float32(av * b1)
				c02 += float32(av * b2)
				c03 += float32(av * b3)
				av = a1[k]
				c10 += float32(av * b0)
				c11 += float32(av * b1)
				c12 += float32(av * b2)
				c13 += float32(av * b3)
				av = a2[k]
				c20 += float32(av * b0)
				c21 += float32(av * b1)
				c22 += float32(av * b2)
				c23 += float32(av * b3)
				av = a3[k]
				c30 += float32(av * b0)
				c31 += float32(av * b1)
				c32 += float32(av * b2)
				c33 += float32(av * b3)
				off += ldb
			}
			r := (m+0)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = leaky(c00, slope), leaky(c01, slope), leaky(c02, slope), leaky(c03, slope)
			r = (m+1)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = leaky(c10, slope), leaky(c11, slope), leaky(c12, slope), leaky(c13, slope)
			r = (m+2)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = leaky(c20, slope), leaky(c21, slope), leaky(c22, slope), leaky(c23, slope)
			r = (m+3)*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = leaky(c30, slope), leaky(c31, slope), leaky(c32, slope), leaky(c33, slope)
		}
		for ; j < nc; j++ {
			cc0, cc1, cc2, cc3 := bi0, bi1, bi2, bi3
			off := j
			for k := 0; k < K; k++ {
				bv := b[off]
				cc0 += float32(a0[k] * bv)
				cc1 += float32(a1[k] * bv)
				cc2 += float32(a2[k] * bv)
				cc3 += float32(a3[k] * bv)
				off += ldb
			}
			c[(m+0)*ldc+j] = leaky(cc0, slope)
			c[(m+1)*ldc+j] = leaky(cc1, slope)
			c[(m+2)*ldc+j] = leaky(cc2, slope)
			c[(m+3)*ldc+j] = leaky(cc3, slope)
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
				cc0 += float32(av * b[off])
				cc1 += float32(av * b[off+1])
				cc2 += float32(av * b[off+2])
				cc3 += float32(av * b[off+3])
				off += ldb
			}
			r := m*ldc + j
			c[r], c[r+1], c[r+2], c[r+3] = leaky(cc0, slope), leaky(cc1, slope), leaky(cc2, slope), leaky(cc3, slope)
		}
		for ; j < nc; j++ {
			acc := bi
			off := j
			for k := 0; k < K; k++ {
				acc += float32(arow[k] * b[off])
				off += ldb
			}
			c[m*ldc+j] = leaky(acc, slope)
		}
	}
}
