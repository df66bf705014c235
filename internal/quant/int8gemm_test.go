package quant

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/auigen"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// forwardPlane fills output plane (n, oc) from the quantised activations with
// the direct nested loop — the oracle the int8 GEMM path is pinned against.
// int32 accumulation is exact, so the two must agree bit for bit.
func (q *qconv) forwardPlane(qx []int8, inShape []int, y *tensor.Tensor, n, oc int) {
	C, H, W := inShape[1], inShape[2], inShape[3]
	oh, ow := y.Shape[2], y.Shape[3]
	deq := q.wScale[oc] * q.inScale
	bias := q.b[oc]
	outBase := ((n*q.OutC + oc) * oh) * ow
	for oy := 0; oy < oh; oy++ {
		ihBase := oy*q.Stride - q.Pad
		outRow := outBase + oy*ow
		for ox := 0; ox < ow; ox++ {
			iwBase := ox*q.Stride - q.Pad
			var acc int32
			for ic := 0; ic < q.InC; ic++ {
				wBase := ((oc*q.InC + ic) * q.K) * q.K
				inBase := ((n*C + ic) * H) * W
				for kh := 0; kh < q.K; kh++ {
					ih := ihBase + kh
					if ih < 0 || ih >= H {
						continue
					}
					inRow := inBase + ih*W
					wRow := wBase + kh*q.K
					for kw := 0; kw < q.K; kw++ {
						iw := iwBase + kw
						if iw < 0 || iw >= W {
							continue
						}
						acc += int32(q.qw[wRow+kw]) * int32(qx[inRow+iw])
					}
				}
			}
			v := float32(float32(acc)*deq) + bias
			if q.relu && v < 0 {
				v *= 0.1
			}
			y.Data[outRow+ox] = v
		}
	}
}

// randQConv builds a qconv with random folded weights and calibration
// scales, quantised the production way.
func randQConv(rng *rand.Rand, inC, outC, k, stride, pad int, relu bool) *qconv {
	per := inC * k * k
	q := &qconv{ConvGeom: tensor.ConvGeom{InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}, relu: relu}
	q.w = make([]float32, outC*per)
	for i := range q.w {
		q.w[i] = rng.Float32()*2 - 1
	}
	q.b = make([]float32, outC)
	for i := range q.b {
		q.b[i] = rng.Float32() - 0.5
	}
	q.quantiseWeights()
	q.inScale = (0.5 + rng.Float32()) / 127
	return q
}

// randQx fills a random int8 activation tensor in [-127, 127].
func randQx(rng *rand.Rand, n int) []int8 {
	qx := make([]int8, n)
	for i := range qx {
		qx[i] = int8(rng.Intn(255) - 127)
	}
	return qx
}

// repeatQx are int8 activations whose receptive fields repeat the way a
// screen's do, each batch item with values of its own: a flat field with a
// rectangle on it, a 3x5 tile repeated across the map, a constant map, and
// an all-zero map (its windows wholly in padding equal its in-bounds ones).
func repeatQx(rng *rand.Rand, n, c, h, w int) [][]int8 {
	flat, tile, cnst, zero := make([]int8, n*c*h*w), make([]int8, n*c*h*w), make([]int8, n*c*h*w), make([]int8, n*c*h*w)
	for item := 0; item < n; item++ {
		bg, fg, v := randQx(rng, c), randQx(rng, c), randQx(rng, 1)[0]
		tl := randQx(rng, c*15)
		x0, y0 := rng.Intn(w), rng.Intn(h)
		x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
		for ic := 0; ic < c; ic++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					i := ((item*c+ic)*h+y)*w + x
					flat[i] = bg[ic]
					if x >= x0 && x < x1 && y >= y0 && y < y1 {
						flat[i] = fg[ic]
					}
					tile[i] = tl[(ic*3+y%3)*5+x%5]
					cnst[i] = v
				}
			}
		}
	}
	return [][]int8{flat, tile, cnst, zero}
}

// TestForwardI8FloatMatchesPerPlane pins the int8 GEMM against the retained
// per-plane int8 reference loop: same int8 activations in, bit-identical
// float32 maps out — int32 accumulation is exact, so any tiling or im2col
// error shows up as a hard mismatch. Shapes cover the 1x1 fast path,
// stride > 1, pad >= k/2, and spatial sizes smaller than the kernel; inputs
// are random and repeatQx, screen-like maps (B1's geometry cuts an item
// into four column blocks, some starting mid-row).
func TestForwardI8FloatMatchesPerPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct{ n, c, h, w, outC, k, stride, pad int }
	cases := []shape{
		{2, 3, 160, 96, 10, 3, 2, 1}, // B1 geometry
		{1, 2, 5, 5, 3, 3, 1, 3},     // windows wholly in padding
		{2, 4, 9, 9, 4, 3, 1, 0},     // no padding: a constant map is one column
		{2, 24, 12, 20, 5, 1, 1, 0},  // UPO head geometry (1x1 fast path)
		{1, 32, 3, 5, 5, 1, 1, 0},    // AGO head geometry, tiny grid
		{1, 4, 2, 2, 3, 3, 1, 2},     // input smaller than kernel
		{3, 5, 9, 7, 6, 3, 3, 1},     // stride 3
		{1, 1, 6, 6, 2, 5, 2, 2},     // 5x5 kernel, pad = k/2
	}
	for i := 0; i < 8; i++ {
		k := 1 + rng.Intn(2)*2
		cases = append(cases, shape{
			n: 1 + rng.Intn(2), c: 1 + rng.Intn(8),
			h: 1 + rng.Intn(16), w: 1 + rng.Intn(16),
			outC: 1 + rng.Intn(9), k: k,
			stride: 1 + rng.Intn(3), pad: rng.Intn(k/2 + 2),
		})
	}
	for _, s := range cases {
		if s.h+2*s.pad < s.k || s.w+2*s.pad < s.k {
			s.pad = s.k
		}
		for _, relu := range []bool{false, true} {
			q := randQConv(rng, s.c, s.outC, s.k, s.stride, s.pad, relu)
			inputs := append([][]int8{randQx(rng, s.n*s.c*s.h*s.w)}, repeatQx(rng, s.n, s.c, s.h, s.w)...)
			for k, qx := range inputs {
				oh, ow := q.OutSize(s.h, s.w)
				want := tensor.New(s.n, s.outC, oh, ow)
				for n := 0; n < s.n; n++ {
					for oc := 0; oc < s.outC; oc++ {
						q.forwardPlane(qx, []int{s.n, s.c, s.h, s.w}, want, n, oc)
					}
				}
				got := tensor.New(s.n, s.outC, oh, ow)
				tensor.Conv((*qhead)(q), qx, s.n, s.h, s.w, got.Data, nil)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("shape %+v relu=%v input %d: element %d differs: gemm %v per-plane %v",
							s, relu, k, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestForwardI8RequantMatchesFormula checks the int8-out requantise epilogue
// against a direct recomputation from the reference accumulators: the stored
// int8 must equal clamp(round(leaky(acc*rq + bq))) for every element.
func TestForwardI8RequantMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := requantQConv(rng, 6, 9, 3, 2, 1)
	N, H, W := 2, 13, 11
	for k, qx := range [][]int8{randQx(rng, N*q.InC*H*W), repeatQx(rng, N, q.InC, H, W)[0]} {
		requantMatchesFormula(t, q, qx, N, H, W, k)
	}
}

// requantQConv is randQConv with leaky-ReLU and a random output scale, so
// forward requantises to int8.
func requantQConv(rng *rand.Rand, inC, outC, k, stride, pad int) *qconv {
	q := randQConv(rng, inC, outC, k, stride, pad, true)
	q.outScale = (0.5 + rng.Float32()) / 8
	q.rq = make([]float32, q.OutC)
	q.bq = make([]float32, q.OutC)
	for oc := 0; oc < q.OutC; oc++ {
		q.rq[oc] = q.wScale[oc] * q.inScale / q.outScale
		q.bq[oc] = q.b[oc] / q.outScale
	}
	return q
}

// requantMatchesFormula runs one input through TestForwardI8RequantMatchesFormula.
func requantMatchesFormula(t *testing.T, q *qconv, qx []int8, N, H, W, k int) {
	oh, ow := q.OutSize(H, W)
	out := make([]int8, N*q.OutC*oh*ow)
	tensor.Conv(q, qx, N, H, W, out, nil)
	// Reference: exact accumulators from the per-plane loop, with the
	// dequantising epilogue disabled by unit constants so y holds raw acc.
	ref := &qconv{ConvGeom: q.ConvGeom, qw: q.qw}
	ref.wScale = make([]float32, q.OutC)
	ref.b = make([]float32, q.OutC)
	for i := range ref.wScale {
		ref.wScale[i] = 1
	}
	ref.inScale = 1
	accT := tensor.New(N, q.OutC, oh, ow)
	for n := 0; n < N; n++ {
		for oc := 0; oc < q.OutC; oc++ {
			ref.forwardPlane(qx, []int{N, q.InC, H, W}, accT, n, oc)
		}
	}
	cols := oh * ow
	for i, g := range out {
		oc := (i / cols) % q.OutC
		v := float32(accT.Data[i]*q.rq[oc]) + q.bq[oc]
		if v < 0 {
			v *= 0.1
		}
		want := int8(clamp(math.Round(float64(v)), -127, 127))
		// The epilogue rounds in float32; allow the half-integer knife edge
		// only if float64 rounding disagrees by exactly one.
		if g != want {
			t.Fatalf("input %d element %d: requant %d, formula %d (acc=%v rq=%v bq=%v)",
				k, i, g, want, accT.Data[i], q.rq[oc], q.bq[oc])
		}
	}
}

// TestQuantI8MatchesLegacyOnCorpus pins the float32-rounding quantise loop
// to the original float64 divide + math.Round form over a deterministic
// corpus of realistic activations (uniform, normal-ish, boundary-heavy, and
// out-of-range values at production-like scales). The half-integer multiples
// of the scale are the values that rejected the reciprocal-multiply variant.
func TestQuantI8MatchesLegacyOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	scales := []float32{1.0 / 127, 2.37 / 127, 0.004, 0.031, 5.5 / 127}
	for _, s := range scales {
		corpus := make([]float32, 0, 40000)
		for i := 0; i < 20000; i++ {
			corpus = append(corpus, (rng.Float32()*2-1)*s*140) // spans the clamp
		}
		for i := 0; i < 10000; i++ {
			corpus = append(corpus, float32(rng.NormFloat64())*s*40)
		}
		for i := 0; i < 10000; i++ {
			// Near-half-integer multiples of the scale: the rounding knife edge.
			corpus = append(corpus, (float32(rng.Intn(255)-127)+0.5)*s)
		}
		got := make([]int8, len(corpus))
		quantI8(got, corpus, s)
		for i, v := range corpus {
			want := int8(clamp(math.Round(float64(v/s)), -127, 127))
			if got[i] != want {
				t.Fatalf("scale %v: quantI8(%v) = %d, legacy %d", s, v, got[i], want)
			}
		}
	}
}

// TestQuantI8NonFinite pins the inputs the ±127 clamp must not leave to the
// platform's float-to-int conversion: NaN quantises to 0, ±Inf to ±127.
func TestQuantI8NonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	src := []float32{nan, inf, -inf, 0.5, -nan}
	got := make([]int8, len(src))
	quantI8(got, src, 1.0/127)
	for i, want := range []int8{0, 127, -127, 64, 0} {
		if got[i] != want {
			t.Errorf("quantI8(%v) = %d, want %d", src[i], got[i], want)
		}
	}
}

// TestQuant8MatchesScalar pins the eight-wide quantiser to quantScalar,
// value for value, at several scales: NaN of both signs and other payloads,
// +-Inf, +-0, denormals, values landing on +-127, +-127.5 and just inside
// them, exact halves of every sign (the rounding knife edge, which the sign
// decides), and a random spread past the clamp, in lengths that leave every
// tail 0-7 to the scalar loop.
func TestQuant8MatchesScalar(t *testing.T) {
	if !tensor.SIMD {
		t.Skip("no SIMD quantiser on this CPU")
	}
	rng := rand.New(rand.NewSource(41))
	for _, s := range []float32{1, 1.0 / 127, 0.031, 3e-39} {
		src := []float32{float32(math.NaN()), -float32(math.NaN()), math.Float32frombits(0x7f800001),
			math.Float32frombits(0xffc00000), float32(math.Inf(1)), float32(math.Inf(-1)),
			0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
		for _, r := range []float32{127, 127.5, 128, 126.5, 126.49999, 127.49999, 0.5, 1.5, 2.5, 0.49999997} {
			src = append(src, r*s, -r*s, math.Nextafter32(r*s, 0), -math.Nextafter32(r*s, 0))
		}
		for i := range 1000 {
			src = append(src, (rng.Float32()*2-1)*s*150, (float32(i%255-127)+0.5)*s)
		}
		for n := len(src) - 7; n <= len(src); n++ {
			got, want := make([]int8, n), make([]int8, n)
			quantI8(got, src[:n], s)
			quantScalar(want, src[:n], s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("scale %v: quantI8(%v) = %d, quantScalar %d", s, src[i], got[i], want[i])
				}
			}
		}
	}
}

// TestRequant8MatchesScalar pins the eight-wide requantiser to
// requantScalar, value for value, at leaky slopes 1 and 0.1 and several
// (rq, bq): accumulators landing on +-127, +-127.5 and just inside them,
// exact halves of both signs (the rounding knife edge, which the sign
// decides), -0 (a negative rq times a zero accumulator, plus bq = -0),
// int32 extremes and values past 2^24 that the int-to-float conversion
// rounds, and a random spread past the clamp, in lengths that leave every
// tail 0-7 to the scalar loop. Last, large accumulators whose bq cancels
// all but an exact half of float32(acc)*rq: a multiply-add fused into one
// rounding, which the scalar loop never does, lands off that knife edge.
func TestRequant8MatchesScalar(t *testing.T) {
	if !tensor.SIMD {
		t.Skip("no SIMD requantiser on this CPU")
	}
	check := func(acc []int32, rq, bq, slope float32) {
		t.Helper()
		for n := max(len(acc)-7, 0); n <= len(acc); n++ {
			got, want := make([]int8, n), make([]int8, n)
			requant(got, acc[:n], rq, bq, slope)
			requantScalar(want, acc[:n], rq, bq, slope)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rq %v bq %v slope %v: requant(%d) = %d, requantScalar %d", rq, bq, slope, acc[i], got[i], want[i])
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	negZero := float32(math.Copysign(0, -1))
	for _, slope := range []float32{1, 0.1} {
		for _, p := range []struct{ rq, bq float32 }{
			{0.5, 0}, {0.5, negZero}, {-0.5, negZero}, {0.05, 0}, {0.0123, 0.25}, {0.5, -0.5}, {3.1e-5, -1.7},
		} {
			acc := []int32{0, 1, -1, 2, -2, 3, -3, 10, -10, 30, -30, 253, -253, 254, -254, 255, -255, 256, -256,
				2540, -2540, 2550, -2550, 2560, -2560, 1 << 24, 1<<24 + 1, -(1<<24 + 1), 1<<25 + 3, -(1<<25 + 3),
				math.MaxInt32, math.MinInt32, math.MaxInt32 - 64, math.MinInt32 + 65}
			for i := range 1000 {
				acc = append(acc, int32(rng.Intn(1<<16)-1<<15), int32(i%511-255), int32(rng.Uint32()))
			}
			check(acc, p.rq, p.bq, slope)
		}
		for _, a := range []int32{1000003, -999983, 123457, 7777777, -3333331, 65537} {
			for _, h := range []float32{0.5, -0.5, 1.5, -2.5} {
				rq := float32(0.1)
				check([]int32{a, a, a, a, a, a, a, a}, rq, h-float32(float32(a)*rq), slope)
			}
		}
	}
}

// naiveGemm is the triple loop gemmPairs must equal bit for bit:
// acc[m*nc+j] = sum_k qw[m*K+k]*b[k*ldb+j], accumulated in int64 so the
// reference itself cannot wrap.
func naiveGemm(t *testing.T, qw, b []int8, ldb, M, K, nc int) []int32 {
	acc := make([]int32, M*nc)
	for m := 0; m < M; m++ {
		for j := 0; j < nc; j++ {
			var s int64
			for k := 0; k < K; k++ {
				s += int64(qw[m*K+k]) * int64(b[k*ldb+j])
			}
			if int64(int32(s)) != s {
				t.Fatalf("reference sum %d at (%d,%d) leaves int32", s, m, j)
			}
			acc[m*nc+j] = int32(s)
		}
	}
	return acc
}

// checkGemm runs gemmPairs, and gemmWords where this CPU has it, over a
// poisoned accumulator tile (pooled tiles arrive dirty) and demands exact
// equality with naiveGemm, and so with each other. b is cut to exactly the
// length the kernels may read, so the drivers' bounds checks catch a tile
// that would read past it.
func checkGemm(t *testing.T, qw, b []int8, ldb, M, K, nc int) {
	t.Helper()
	if K > 0 {
		b = b[:(K-1)*ldb+nc]
	}
	want := naiveGemm(t, qw, b, ldb, M, K, nc)
	kernels := map[string]func([]int32){
		"gemmPairs": func(acc []int32) { gemmPairs(packPairs(qw, M, K), b, ldb, acc, M, K, nc) },
	}
	if tensor.SIMD {
		kernels["gemmWords"] = func(acc []int32) { gemmWords(packWords(qw, M, K), b, ldb, acc, M, K, nc) }
	}
	for name, run := range kernels {
		got := make([]int32, M*nc)
		for i := range got {
			got[i] = -1 << 31
		}
		run(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s M=%d K=%d nc=%d ldb=%d: acc[%d] (row %d, col %d) = %d, want %d",
					name, M, K, nc, ldb, i, i/nc, i%nc, got[i], want[i])
			}
		}
	}
}

// fullI8 draws n values over the whole int8 range, -128 included.
func fullI8(rng *rand.Rand, n int) []int8 {
	v := make([]int8, n)
	for i := range v {
		v[i] = int8(rng.Intn(256) - 128)
	}
	return v
}

// TestGemmPairsMatchesNaive sweeps random shapes so every row tail (0-3
// packed rows left over), column tail and odd-M zero lane meets every other,
// with ldb > nc as on the 1x1 path, over the full int8 range.
func TestGemmPairsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		M, K, nc := 1+rng.Intn(13), 1+rng.Intn(300), 1+rng.Intn(11)
		ldb := nc + rng.Intn(3)
		checkGemm(t, fullI8(rng, M*K), fullI8(rng, K*ldb), ldb, M, K, nc)
	}
}

// TestGemmWordsMatchesNaive pins the SIMD kernel where gemmWords' tiling
// can go wrong: every production shape at its benchmarked block width;
// every column count from 1 to 17 (under a tile, one tile, one column
// past it) and whole and shifted tiles up to 65, each with odd and even K
// and every row-band tail (M%4 = 0-3); and panels whose rows are longer
// than the block (ldb > nc, as on the 1x1 path).
func TestGemmWordsMatchesNaive(t *testing.T) {
	if !tensor.SIMD {
		t.Skip("no SIMD int8 kernel on this CPU")
	}
	rng := rand.New(rand.NewSource(24))
	for _, s := range gemmShapes {
		nc := s.width()
		checkGemm(t, fullI8(rng, s.M*s.K), fullI8(rng, s.K*nc), nc, s.M, s.K, nc)
	}
	for _, nc := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 48, 65} {
		for _, K := range []int{1, 2, 27, 90, 287, 288} {
			for _, M := range []int{1, 4, 5, 10, 11, 32} {
				checkGemm(t, fullI8(rng, M*K), fullI8(rng, K*nc), nc, M, K, nc)
			}
		}
	}
	for i := 0; i < 200; i++ {
		M, K, nc := 1+rng.Intn(13), 1+rng.Intn(300), 1+rng.Intn(70)
		ldb := nc + 1 + rng.Intn(20)
		checkGemm(t, fullI8(rng, M*K), fullI8(rng, K*ldb), ldb, M, K, nc)
	}
}

// TestGemmPairsLaneExtremes drives both lanes of a packed accumulator to
// their most negative and most positive sums at once, in every combination,
// so a carry or borrow mistake between the lanes cannot hide behind random
// data: weights are all +-127, activations all -128 or +127, each constant or
// alternating along k. Every pair of the four weight-row patterns shares a
// packed row (33 rows: sixteen pairs and an odd row over the zero lane),
// against five columns (two tile steps and a tail) and against 37 (two
// gemmWords tiles and a shifted one), in panel rows 37 wide. K = 288 is the
// deepest production reduction; K = 4 096 is fourteen times past it.
// checkGemm runs gemmWords on the same extremes.
func TestGemmPairsLaneExtremes(t *testing.T) {
	pattern := func(p, k int, pos, neg int8) int8 {
		if p == 0 || p == 2 && k%2 == 0 || p == 3 && k%2 == 1 {
			return pos
		}
		return neg
	}
	const M, ldb = 33, 37
	for _, K := range []int{288, 4096} {
		qw := make([]int8, M*K)
		for m := 0; m < M; m++ {
			p := m / 2 / 4 // row 2i carries pattern i/4, row 2i+1 pattern i%4
			if m%2 == 1 {
				p = m / 2 % 4
			}
			for k := 0; k < K; k++ {
				qw[m*K+k] = pattern(p, k, 127, -127)
			}
		}
		b := make([]int8, K*ldb)
		for k := 0; k < K; k++ {
			for j := 0; j < ldb; j++ {
				b[k*ldb+j] = pattern(j%4, k, 127, -128)
			}
		}
		for _, nc := range []int{5, ldb} {
			checkGemm(t, qw, b, ldb, M, K, nc)
		}
	}
}

// TestPackPairsRefusesOverflowingK pins the lane bound where each layout is
// built: the deepest K whose sums provably fit int32 packs, one more panics,
// in both packers (checkDepth).
func TestPackPairsRefusesOverflowingK(t *testing.T) {
	const maxK = 132104 // floor((2^31-1) / (127*128))
	for name, pack := range map[string]func(K int){
		"packPairs": func(K int) { packPairs(nil, 0, K) },
		"packWords": func(K int) { packWords(nil, 0, K) },
	} {
		pack(maxK)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a K whose lane sums can leave int32", name)
				}
			}()
			pack(maxK + 1)
		}()
	}
}

// TestKernelDispatchMatchesCPU fails when the CPU lists AVX2 but the layers
// were given gemmPairs: broken feature detection would otherwise cost the
// SIMD kernel's speed silently, since both kernels answer alike.
func TestKernelDispatchMatchesCPU(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo on linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, _ := strings.Cut(line, ":"); strings.TrimSpace(name) == "flags" {
			if slices.Contains(strings.Fields(flags), "avx2") && !tensor.SIMD {
				t.Fatal("the CPU lists avx2 but tensor.SIMD is false: both precisions run their portable kernels")
			}
			return
		}
	}
	t.Skip("no flags line in /proc/cpuinfo")
}

// TestInt8PipelineScaleChain checks link's invariants: every backbone
// layer's outScale is its consumer's inScale, and the trunk scale is shared
// by the UPO head and the deep chain.
func TestInt8PipelineScaleChain(t *testing.T) {
	m := yolite.NewModel(3)
	qm := Port(m, nil)
	for i, l := range qm.backbone[:len(qm.backbone)-1] {
		if l.outScale != qm.backbone[i+1].inScale {
			t.Fatalf("backbone scale chain broken at layer %d", i)
		}
	}
	if qm.upoHead.inScale != qm.backbone[4].inScale {
		t.Fatal("UPO head does not share the trunk scale")
	}
	if qm.backbone[5].outScale != qm.agoHead.inScale {
		t.Fatal("B5 does not feed the AGO head's scale")
	}
	for _, l := range qm.backbone {
		if len(l.rq) != l.OutC || len(l.bq) != l.OutC {
			t.Fatal("requantise constants missing")
		}
	}
}

// TestInt8ForwardPooledAllocs pins the steady-state allocation count of the
// serial int8 forward at zero: the input quantisation buffer, every int8
// intermediate, the int32 accumulator tiles, and the float head maps all
// recycle. GOMAXPROCS is pinned to 1 because the parallel branch builds a
// closure by design.
func TestInt8ForwardPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := yolite.NewModel(5)
	qm := Port(m, nil)
	qm.SetPool(tensor.NewPool())
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = float32(i%251) / 251
	}
	warm := func() {
		upo, ago := qm.Forward(x)
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}
	warm()
	if avg := testing.AllocsPerRun(10, warm); avg != 0 {
		t.Fatalf("int8 pooled forward allocates %v per op, want 0", avg)
	}
}

// TestInt8ForwardPooledAllocsFlat is TestInt8ForwardPooledAllocs on a flat
// screen — a light background with a dark rectangle — as a screenshot
// looks: its steady state allocates nothing either.
func TestInt8ForwardPooledAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := yolite.NewModel(5)
	qm := Port(m, nil)
	qm.SetPool(tensor.NewPool())
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = 0.9
		if y, xx := i/yolite.InputW%yolite.InputH, i%yolite.InputW; y >= 60 && y < 100 && xx >= 20 && xx < 70 {
			x.Data[i] = 0.2
		}
	}
	warm := func() {
		upo, ago := qm.Forward(x)
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}
	warm()
	if avg := testing.AllocsPerRun(10, warm); avg != 0 {
		t.Fatalf("int8 pooled forward on a flat screen allocates %v per op, want 0", avg)
	}
}

// BenchmarkInt8ForwardScreens is the int8 forward at N=8 on what it sees in
// service: six generator screens and two negatives, as in darpa-bench's
// audit-batch (quant.forward_b8_item_us is its per-item time).
func BenchmarkInt8ForwardScreens(b *testing.B) {
	m := yolite.NewModel(1)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		b.Skip("no pretrained weights")
	}
	qm := Port(m, nil)
	qm.SetPool(tensor.NewPool())
	cfg := auigen.DatasetConfig{}
	x := yolite.BatchToTensor(append(auigen.BuildAUISamples(1, 6, cfg), auigen.BuildNegativeSamples(2, 2, cfg)...))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upo, ago := qm.Forward(x)
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}
}

// BenchmarkInt8Forward measures the end-to-end int8 forward on pretrained
// weights at N=1 over a ramp input; darpa-bench reports the same forward
// as quant.forward_us.
func BenchmarkInt8Forward(b *testing.B) {
	m := yolite.NewModel(1)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		b.Skip("no pretrained weights")
	}
	qm := Port(m, nil)
	qm.SetPool(tensor.NewPool())
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = float32(i%255) / 255
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		upo, ago := qm.Forward(x)
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}
}

// gemmShape is a production GEMM: M = outC, K = inC*k*k, and the layer's
// output columns at N=1.
type gemmShape struct {
	name       string
	M, K, cols int
}

var gemmShapes = []gemmShape{
	{"B1", 10, 27, 3840}, {"B2", 16, 90, 960}, {"B3", 24, 144, 240}, {"B3b", 24, 216, 240},
	{"B4", 32, 216, 60}, {"B5", 32, 288, 15}, {"UPO", 5, 24, 240}, {"AGO", 5, 32, 15},
}

// width is a shape's first column block, as tensor.Conv cuts it.
func (s gemmShape) width() int {
	return min(tensor.ColBlock(s.K, s.cols), s.cols)
}

// BenchmarkGemmI8 times each int8 kernel alone on every production shape
// (the first column block at N=1, random data), so a kernel change can be
// sized without the im2col and epilogue around it: gemmPairs, and gemmWords
// where this CPU has it.
func BenchmarkGemmI8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmShapes {
		nc := s.width()
		qw, panel, acc := randQx(rng, s.M*s.K), randQx(rng, s.K*nc), make([]int32, s.M*nc)
		ap, aw := packPairs(qw, s.M, s.K), packWords(qw, s.M, s.K)
		bench := func(kernel string, run func()) {
			b.Run(fmt.Sprintf("%s/%s_%dx%dx%d", kernel, s.name, s.M, s.K, nc), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(s.M*s.K*nc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
		bench("pairs", func() { gemmPairs(ap, panel, nc, acc, s.M, s.K, nc) })
		if tensor.SIMD {
			bench("words", func() { gemmWords(aw, panel, nc, acc, s.M, s.K, nc) })
		}
	}
}
