package quant

// True int8 inference path: activations are quantised once at the network
// input and stay int8 across the whole backbone. tensor.Conv runs every
// layer as it runs the float ones, over dense int8 im2col panels; each
// layer is a tensor.ConvKernel whose Block is an int8 x int8 -> int32
// blocked GEMM and an epilogue that requantises the int32 accumulators
// straight to the next layer's int8 scale with the folded bias and
// leaky-ReLU applied in the same pass.
//
// The GEMM is chosen once, at init, from CPUID and XGETBV (tensor.SIMD,
// the probe the float GEMM reads too): on amd64 with AVX2 it is gemmWords
// (int8gemm_amd64.s), which sign-extends weights and panel rows to int16
// pairs and accumulates VPMADDWD's two-term sums into int32 lanes with
// VPADDD; everywhere else it is gemmPairs, two MACs per 64-bit multiply
// over weight rows packed in pairs, which is also the tests' oracle.
// VPMADDUBSW is not used: it saturates. Both kernels are exact, so their
// tiles are bit-identical whatever order they sum in: every product is at
// most 127*128 in magnitude, so while K*127*128 < 2^31, K <= 132 104
// (checkDepth; the largest production K is 288), no partial sum leaves
// int32 and integer addition is associative. The epilogue:
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
// in int8gemm_test.go). Both epilogues convert the product to float32
// before adding the bias, as gemmBlock does, so no GOARCH fuses the two
// roundings (arm64 would emit FMADDS) and every GOARCH gets amd64's bits.

import "repro/internal/tensor"

var (
	i8s  tensor.Scratch[int8]  // activations
	i32s tensor.Scratch[int32] // accumulator tiles
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
//
// Where tensor.SIMD holds, whole groups of eight run through quant8
// (int8gemm_amd64.s), which makes the same steps eight wide and matches
// quantScalar bit for bit (TestQuant8MatchesScalar); the rest run
// quantScalar.
func quantI8(dst []int8, src []float32, s float32) {
	n := 0
	if tensor.SIMD {
		if n = len(src) &^ 7; n > 0 {
			_ = dst[n-1]
			quant8(&dst[0], &src[0], n, s)
		}
	}
	quantScalar(dst[n:], src[n:], s)
}

// quantScalar is quantI8 one value at a time.
func quantScalar(dst []int8, src []float32, s float32) {
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

// qhead is a detection head: the same layer, whose epilogue dequantises to
// float32 instead of requantising.
type qhead qconv

// accumulate multiplies the u columns of panel (rows ldb apart) by every
// output channel's weights, returning the OutC x u int32 tile from i32s.
func (q *qconv) accumulate(panel []int8, ldb, u int) *[]int32 {
	acc := i32s.Get(q.OutC * u)
	if tensor.SIMD {
		gemmWords(q.qww, panel, ldb, *acc, q.OutC, q.InC*q.K*q.K, u)
	} else {
		gemmPairs(q.qwp, panel, ldb, *acc, q.OutC, q.InC*q.K*q.K, u)
	}
	return acc
}

// slope is the epilogue's leaky-ReLU slope: 1 leaves negatives bit for bit.
func (q *qconv) slope() float32 {
	if q.relu {
		return 0.1
	}
	return 1
}

// Block is a backbone layer's tensor.ConvKernel: accumulate, then requantise
// each accumulator to y's int8 scale, one output row at a time.
func (q *qconv) Block(panel []int8, ldb int, y []int8, ldc, u int) {
	acc, slope := q.accumulate(panel, ldb, u), q.slope()
	for oc := range q.OutC {
		requant(y[oc*ldc:oc*ldc+u], (*acc)[oc*u:(oc+1)*u], q.rq[oc], q.bq[oc], slope)
	}
	i32s.Put(acc)
}

// requant writes dst[j] = clamp(round(leaky(acc[j]*rq + bq))). Where
// tensor.SIMD holds, whole groups of eight run through requant8
// (int8gemm_amd64.s), which makes requantScalar's steps eight wide and
// matches it bit for bit (TestRequant8MatchesScalar); the rest run
// requantScalar.
func requant(dst []int8, acc []int32, rq, bq, slope float32) {
	n := 0
	if tensor.SIMD {
		if n = len(acc) &^ 7; n > 0 {
			_ = dst[n-1]
			requant8(&dst[0], &acc[0], n, rq, bq, slope)
		}
	}
	requantScalar(dst[n:], acc[n:], rq, bq, slope)
}

// requantScalar is requant one accumulator at a time.
func requantScalar(dst []int8, acc []int32, rq, bq, slope float32) {
	for j, a := range acc {
		v := float32(float32(a)*rq) + bq
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
}

// Block is a head's tensor.ConvKernel: accumulate, then dequantise exactly
// as the reference per-plane loop does, float32(acc)*deq + bias, with the
// optional leaky-ReLU.
func (h *qhead) Block(panel []int8, ldb int, y []float32, ldc, u int) {
	q := (*qconv)(h)
	acc, slope := q.accumulate(panel, ldb, u), q.slope()
	for oc := range q.OutC {
		deq, bias := q.wScale[oc]*q.inScale, q.b[oc]
		dst := y[oc*ldc : oc*ldc+u]
		for j, a := range (*acc)[oc*u : (oc+1)*u] {
			v := float32(float32(a)*deq) + bias
			if v < 0 {
				v *= slope
			}
			dst[j] = v
		}
	}
	i32s.Put(acc)
}

// checkDepth refuses a reduction depth K past the int32 bound above, K <=
// 132 104. Both packers call it, so no packed layout exists that either
// kernel would get wrong.
func checkDepth(K int) {
	if K > (1<<31-1)/(127*128) {
		panic("quant: reduction depth overflows an int32 accumulator lane")
	}
}

// packWords lays int8 weight rows [M][K] out as gemmWords reads them: bands
// of four rows (the last padded with zero rows), each band (K+1)/2 steps of
// four int32 words, word r of step p holding row r's int16 pair (w[2p] in
// bits 0-15, w[2p+1] in bits 16-31, zero past K).
func packWords(qw []int8, M, K int) []int32 {
	checkDepth(K)
	kp := (K + 1) / 2
	aw := make([]int32, (M+3)/4*kp*4)
	for m := 0; m < M; m++ {
		for k, w := range qw[m*K : (m+1)*K] {
			aw[(m/4*kp+k/2)*4+m%4] |= int32(uint16(int16(w))) << (16 * (k & 1))
		}
	}
	return aw
}

// packPairs lays int8 weight rows [M][K] out as (M+1)/2 rows of int64, row p
// holding row 2p in bits 0-31 and row 2p+1 in bits 32-63 (zero when M is
// odd): the layout gemmPairs multiplies, derived from qw, which stays the
// canonical weights.
func packPairs(qw []int8, M, K int) []int64 {
	checkDepth(K)
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
// Under checkDepth's bound |L| and |H| stay below 2^31, and then
// |H<<32| + |L| < 2^63: s never wraps. L is the one int32 congruent
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
