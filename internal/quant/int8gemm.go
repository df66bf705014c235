package quant

// True int8 inference path: activations are quantised once at the network
// input and stay int8 across the whole backbone. Each layer lowers to an
// int8 im2col panel of its distinct columns (tensor.DistinctPanel) and an
// int8 x int8 -> int32 blocked GEMM over weight rows packed in pairs
// (gemmPairs: two MACs per 64-bit multiply), and the epilogue requantises the
// int32 accumulators straight to the next layer's int8 scale with the folded
// bias and leaky-ReLU applied in the same pass:
//
//	q_out = clamp(round(leaky(acc*rq + bq))),  rq = wScale*inScale/outScale,
//	                                           bq = bias/outScale
//
// which is algebraically the reference per-layer flow (dequantise, bias,
// activation, requantise) with the two scale multiplications folded into one
// constant — leaky-ReLU commutes with the positive scale 1/outScale. The
// heads dequantise to float32 with exactly the reference epilogue
// (float32(acc)*deq + bias), so decoded boxes match the per-plane loop
// bit-for-bit given the same int8 activations (pinned by the property tests
// in int8gemm_test.go).

import "repro/internal/tensor"

var (
	i8s  tensor.Scratch[int8]  // activations and im2col panels
	i32s tensor.Scratch[int32] // accumulator tiles, distinct-column maps, labels
)

// quantI8 quantises float activations to int8: dst[i] =
// clamp(round(src[i]/s)) with round-half-away-from-zero done entirely in
// float32 — the add-a-half-and-truncate is bit-identical to the original
// math.Round(float64(v/s)) because r and 0.5 share an ulp grid in every
// binade that matters, so the sum is exact (pinned against the legacy form
// by TestQuantI8MatchesLegacyOnCorpus). The float32 divide is kept rather
// than a precomputed reciprocal multiply: v*(1/s) lands one ulp short of
// half-integers that v/s hits exactly, flipping rounded values across the
// calibration corpus. The seam does not validate input tensors, so the
// non-finite cases are spelled out: +-Inf clamp to +-127 and NaN, which fails
// both range comparisons, is sent to 0 rather than into a float-to-int
// conversion whose NaN result the Go spec leaves to the implementation.
func quantI8(dst []int8, src []float32, s float32) {
	for i, v := range src {
		r := v / s
		if r > 127 {
			r = 127
		} else if r < -127 {
			r = -127
		} else if r != r {
			r = 0
		}
		if r >= 0 {
			dst[i] = int8(r + 0.5)
		} else {
			dst[i] = int8(r - 0.5)
		}
	}
}

// outSize returns the conv's spatial output size for an (h, w) input.
func (q *qconv) outSize(h, w int) (int, int) {
	return (h+2*q.pad-q.k)/q.stride + 1, (w+2*q.pad-q.k)/q.stride + 1
}

// forward runs the quantised convolution on int8 activations: qx is
// [N][inC][H][W] at q.inScale. Exactly one of out and yf is set. A backbone
// layer passes out (length N*outC*OH*OW) and gets requantised int8 at
// q.outScale; a head passes yf ([N, outC, OH, OW]) and gets float32 exactly
// as the reference per-plane loop computes it (float32(acc)*deq + bias,
// optional leaky-ReLU). labIn holds qx's position labels (nil: none), and a
// non-nil labOut receives out's, as tensor.FusedConvBNAct.ForwardLabels
// defines them. Work splits into (batch item, column block) tasks on the
// shared worker pool, each a cooperative cancellation checkpoint; once done
// closes, the output is partially written and must be discarded.
func (q *qconv) forward(qx []int8, N, H, W int, out []int8, yf *tensor.Tensor, labIn, labOut []int32, done <-chan struct{}) {
	OH, OW := q.outSize(H, W)
	cols := OH * OW
	kdim := q.inC * q.k * q.k
	blk := tensor.ColBlock(kdim, cols)
	nBlocks := (cols + blk - 1) / blk
	tasks := N * nBlocks
	tabs := tensor.NewLabelTables(labOut, cols)
	// The closure is only built inside the parallel branch so the serial
	// path stays allocation-free (see tensor.ParallelWorthwhile).
	if tensor.ParallelWorthwhile(N * q.outC * cols * kdim) {
		tensor.ParallelForCancel(done, tasks, func(t int) {
			q.i8Task(qx, N, H, W, out, yf, labIn, labOut, tabs, blk, nBlocks, t)
		})
	} else {
		for t := 0; t < tasks && !tensor.Aborted(done); t++ {
			q.i8Task(qx, N, H, W, out, yf, labIn, labOut, tabs, blk, nBlocks, t)
		}
	}
	tabs.Free()
}

// i8Task runs one (batch item, column block) unit: unpack the int8 panel,
// accumulate every output channel against it in int32, then requantise (out
// != nil) or dequantise (yf != nil) the accumulator tile while it is
// cache-hot, labelling requantised results when labels are wanted.
func (q *qconv) i8Task(qx []int8, N, H, W int, out []int8, yf *tensor.Tensor, labIn, labOut []int32, tabs tensor.LabelTables, blk, nBlocks, t int) {
	n, b := t/nBlocks, t%nBlocks
	OH, OW := q.outSize(H, W)
	cols := OH * OW
	kdim := q.inC * q.k * q.k
	j0 := b * blk
	j1 := min(j0+blk, cols)
	nc, u := j1-j0, j1-j0
	accBuf, repBuf := i32s.Get(q.outC*nc), i32s.Get(nc)
	acc, rep := *accBuf, *repBuf
	if labOut != nil { // the rep map is the block's share of labOut
		rep = labOut[n*cols+j0 : n*cols+j1]
	}
	if q.k == 1 && q.stride == 1 && q.pad == 0 {
		// 1x1 stride-1: the panel is the input activations themselves.
		bp := qx[n*q.inC*cols+j0:]
		gemmPairs(q.qwp, bp, cols, acc, q.outC, kdim, nc)
		for i := range rep {
			rep[i] = int32(i)
		}
	} else {
		panel := i8s.Get(kdim * nc)
		// The item's labels lead labIn[n*H*W:]; a nil labIn stays nil.
		u = tensor.DistinctPanel(qx[n*q.inC*H*W:(n+1)*q.inC*H*W], labIn[min(n*H*W, len(labIn)):], q.inC, H, W, q.k, q.stride, q.pad, OW, j0, j1, *panel, rep)
		gemmPairs(q.qwp, *panel, u, acc, q.outC, kdim, u)
		i8s.Put(panel)
	}
	outBase := n*q.outC*cols + j0
	// Read q.relu once: a slope of 1 leaves negatives bit-for-bit alone.
	slope := float32(1)
	if q.relu {
		slope = 0.1
	}
	if out != nil {
		for oc := 0; oc < q.outC; oc++ {
			rq, bq := q.rq[oc], q.bq[oc]
			row := acc[oc*u : (oc+1)*u]
			dst := out[outBase+oc*cols : outBase+oc*cols+nc]
			for j, a := range row {
				v := float32(a)*rq + bq
				if v < 0 {
					v *= slope
				}
				if v > 127 {
					v = 127
				} else if v < -127 {
					v = -127
				}
				if v >= 0 {
					dst[j] = int8(v + 0.5)
				} else {
					dst[j] = int8(v - 0.5)
				}
			}
			if u < nc {
				tensor.SpreadCols(dst, rep)
			}
		}
		if labOut != nil {
			tensor.LabelBlock(tabs, n, out[n*q.outC*cols:(n+1)*q.outC*cols], cols, j0, rep)
		}
	} else {
		for oc := 0; oc < q.outC; oc++ {
			deq := q.wScale[oc] * q.inScale
			bias := q.b[oc]
			row := acc[oc*u : (oc+1)*u]
			dst := yf.Data[outBase+oc*cols : outBase+oc*cols+nc]
			for j, a := range row {
				v := float32(a)*deq + bias
				if v < 0 {
					v *= slope
				}
				dst[j] = v
			}
			if u < nc {
				tensor.SpreadCols(dst, rep)
			}
		}
	}
	i32s.Put(accBuf)
	i32s.Put(repBuf)
}

// packPairs lays int8 weight rows [M][K] out as (M+1)/2 rows of int64, row p
// holding row 2p in bits 0-31 and row 2p+1 in bits 32-63 (zero when M is
// odd): the layout gemmPairs multiplies, derived from qw, which stays the
// canonical weights. It refuses a K whose lane sums could leave int32 (see
// gemmPairs), so no packed row exists that the kernel would get wrong.
func packPairs(qw []int8, M, K int) []int64 {
	if K > (1<<31-1)/(127*128) {
		panic("quant: reduction depth overflows an int32 accumulator lane")
	}
	ap := make([]int64, (M+1)/2*K)
	for m := 0; m < M; m++ {
		row := ap[m/2*K : (m/2+1)*K]
		for k, w := range qw[m*K : (m+1)*K] {
			row[k] += int64(w) << (32 * (m & 1))
		}
	}
	return ap
}

// gemmPairs computes acc[m*nc+j] = sum_k qw[m*K+k]*b[k*ldb+j] in int32 for m
// in [0,M), j in [0,nc), reading the weights as packPairs lays them out. One
// 64-bit multiply of a packed weight by a sign-extended activation yields
// both rows' products at once, so a packed accumulator is
//
//	s = L + H<<32,  L = sum_k qw[2p][k]*x_k,  H = sum_k qw[2p+1][k]*x_k.
//
// Every product is at most 127*128 in magnitude, so |L| and |H| stay below
// 2^31 while K*127*128 < 2^31, K <= 132 104 (the largest production K is
// 288) — the bound int32 accumulators need with one MAC per multiply too —
// and then |H<<32| + |L| < 2^63: s never wraps. L is the one int32 congruent
// to s mod 2^32, int32(s). A negative L has borrowed one from the high lane;
// subtracting L before the shift returns it, so (s - L) >> 32 is H exactly.
// Both accumulators are bit-identical to the per-plane loop's (the oracle in
// int8gemm_test.go) on every GOARCH.
//
// The register tile is 4 packed rows x 2 columns: eight int64 accumulators,
// eight multiplies for sixteen MACs per k step (picked by measurement over
// 2x4, 2x3, 3x2 and 2x2). What it leaves — the last P%4 packed rows, and the
// odd column of the rows it did cover — goes through a 1x4 tile.
func gemmPairs(ap []int64, b []int8, ldb int, acc []int32, M, K, nc int) {
	P := (M + 1) / 2
	P4, nc2 := P&^3, nc&^1
	for p := 0; p < P4; p += 4 {
		a0 := ap[(p+0)*K : (p+1)*K]
		a1 := ap[(p+1)*K : (p+2)*K]
		a2 := ap[(p+2)*K : (p+3)*K]
		a3 := ap[(p+3)*K : (p+4)*K]
		for j := 0; j < nc2; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 int64
			off := j
			for k := 0; k < K; k++ {
				b0, b1 := int64(b[off]), int64(b[off+1])
				w := a0[k]
				s00 += w * b0
				s01 += w * b1
				w = a1[k]
				s10 += w * b0
				s11 += w * b1
				w = a2[k]
				s20 += w * b0
				s21 += w * b1
				w = a3[k]
				s30 += w * b0
				s31 += w * b1
				off += ldb
			}
			unpack(acc, 2*p+0, M, nc, j, s00)
			unpack(acc, 2*p+0, M, nc, j+1, s01)
			unpack(acc, 2*p+2, M, nc, j, s10)
			unpack(acc, 2*p+2, M, nc, j+1, s11)
			unpack(acc, 2*p+4, M, nc, j, s20)
			unpack(acc, 2*p+4, M, nc, j+1, s21)
			unpack(acc, 2*p+6, M, nc, j, s30)
			unpack(acc, 2*p+6, M, nc, j+1, s31)
		}
	}
	for p := 0; p < P; p++ {
		arow := ap[p*K : (p+1)*K]
		j := 0
		if p < P4 {
			j = nc2
		}
		for ; j+4 <= nc; j += 4 {
			var s0, s1, s2, s3 int64
			off := j
			for k := 0; k < K; k++ {
				w := arow[k]
				s0 += w * int64(b[off])
				s1 += w * int64(b[off+1])
				s2 += w * int64(b[off+2])
				s3 += w * int64(b[off+3])
				off += ldb
			}
			unpack(acc, 2*p, M, nc, j, s0)
			unpack(acc, 2*p, M, nc, j+1, s1)
			unpack(acc, 2*p, M, nc, j+2, s2)
			unpack(acc, 2*p, M, nc, j+3, s3)
		}
		for ; j < nc; j++ {
			var s int64
			off := j
			for k := 0; k < K; k++ {
				s += arow[k] * int64(b[off])
				off += ldb
			}
			unpack(acc, 2*p, M, nc, j, s)
		}
	}
}

// unpack stores a packed accumulator's lanes as rows m and m+1 of column j;
// the upper lane of an odd M's last pair is the zero row and is dropped.
func unpack(acc []int32, m, M, nc, j int, s int64) {
	lo := int32(s)
	acc[m*nc+j] = lo
	if m+1 < M {
		acc[(m+1)*nc+j] = int32((s - int64(lo)) >> 32)
	}
}
