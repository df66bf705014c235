package quant

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

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
	outBase := ((n*q.outC + oc) * oh) * ow
	for oy := 0; oy < oh; oy++ {
		ihBase := oy*q.stride - q.pad
		outRow := outBase + oy*ow
		for ox := 0; ox < ow; ox++ {
			iwBase := ox*q.stride - q.pad
			var acc int32
			for ic := 0; ic < q.inC; ic++ {
				wBase := ((oc*q.inC + ic) * q.k) * q.k
				inBase := ((n*C + ic) * H) * W
				for kh := 0; kh < q.k; kh++ {
					ih := ihBase + kh
					if ih < 0 || ih >= H {
						continue
					}
					inRow := inBase + ih*W
					wRow := wBase + kh*q.k
					for kw := 0; kw < q.k; kw++ {
						iw := iwBase + kw
						if iw < 0 || iw >= W {
							continue
						}
						acc += int32(q.qw[wRow+kw]) * int32(qx[inRow+iw])
					}
				}
			}
			v := float32(acc)*deq + bias
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
	q := &qconv{foldedConv: foldedConv{
		inC: inC, outC: outC, k: k, stride: stride, pad: pad,
	}, relu: relu}
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

// TestForwardI8FloatMatchesPerPlane pins the int8 GEMM against the retained
// per-plane int8 reference loop: same int8 activations in, bit-identical
// float32 maps out — int32 accumulation is exact, so any tiling or im2col
// error shows up as a hard mismatch. Shapes cover the 1x1 fast path,
// stride > 1, pad >= k/2, and spatial sizes smaller than the kernel.
func TestForwardI8FloatMatchesPerPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type shape struct{ n, c, h, w, outC, k, stride, pad int }
	cases := []shape{
		{1, 3, 160, 96, 10, 3, 2, 1}, // B1 geometry
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
			qx := randQx(rng, s.n*s.c*s.h*s.w)
			oh, ow := q.outSize(s.h, s.w)
			want := tensor.New(s.n, s.outC, oh, ow)
			for n := 0; n < s.n; n++ {
				for oc := 0; oc < s.outC; oc++ {
					q.forwardPlane(qx, []int{s.n, s.c, s.h, s.w}, want, n, oc)
				}
			}
			got := q.forwardI8Float(qx, s.n, s.h, s.w, nil, nil)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %+v relu=%v: element %d differs: gemm %v per-plane %v",
						s, relu, i, got.Data[i], want.Data[i])
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
	q := randQConv(rng, 6, 9, 3, 2, 1, true)
	q.outScale = (0.5 + rng.Float32()) / 8
	q.rq = make([]float32, q.outC)
	q.bq = make([]float32, q.outC)
	for oc := 0; oc < q.outC; oc++ {
		q.rq[oc] = q.wScale[oc] * q.inScale / q.outScale
		q.bq[oc] = q.b[oc] / q.outScale
	}
	N, H, W := 2, 13, 11
	qx := randQx(rng, N*q.inC*H*W)
	oh, ow := q.outSize(H, W)
	out := make([]int8, N*q.outC*oh*ow)
	q.forwardI8(qx, N, H, W, out, nil)
	// Reference: exact accumulators from the per-plane loop, with the
	// dequantising epilogue disabled by unit constants so y holds raw acc.
	ref := &qconv{foldedConv: q.foldedConv, qw: q.qw, relu: false}
	ref.wScale = make([]float32, q.outC)
	ref.b = make([]float32, q.outC)
	for i := range ref.wScale {
		ref.wScale[i] = 1
	}
	ref.inScale = 1
	accT := tensor.New(N, q.outC, oh, ow)
	for n := 0; n < N; n++ {
		for oc := 0; oc < q.outC; oc++ {
			ref.forwardPlane(qx, []int{N, q.inC, H, W}, accT, n, oc)
		}
	}
	cols := oh * ow
	for i, g := range out {
		oc := (i / cols) % q.outC
		v := accT.Data[i]*q.rq[oc] + q.bq[oc]
		if v < 0 {
			v *= 0.1
		}
		want := int8(clamp(math.Round(float64(v)), -127, 127))
		// The epilogue rounds in float32; allow the half-integer knife edge
		// only if float64 rounding disagrees by exactly one.
		if g != want {
			t.Fatalf("element %d: requant %d, formula %d (acc=%v rq=%v bq=%v)",
				i, g, want, accT.Data[i], q.rq[oc], q.bq[oc])
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

// TestInt8PipelineScaleChain checks link's invariants: every backbone
// layer's outScale is its consumer's inScale, and the trunk scale is shared
// by the UPO head and the deep chain.
func TestInt8PipelineScaleChain(t *testing.T) {
	m := yolite.NewModel(3)
	qm := Port(m, nil)
	if qm.blocks[0].outScale != qm.blocks[1].inScale ||
		qm.blocks[1].outScale != qm.blocks[2].inScale ||
		qm.blocks[2].outScale != qm.blocks[3].inScale {
		t.Fatal("backbone scale chain broken")
	}
	if qm.blocks[3].outScale != qm.deep[0].inScale {
		t.Fatal("trunk scale does not feed B4")
	}
	if qm.upoHead.inScale != qm.deep[0].inScale {
		t.Fatal("UPO head does not share the trunk scale")
	}
	if qm.deep[0].outScale != qm.deep[1].inScale || qm.deep[1].outScale != qm.agoHead.inScale {
		t.Fatal("deep chain scales broken")
	}
	for _, l := range []*qconv{qm.blocks[0], qm.blocks[1], qm.blocks[2], qm.blocks[3], qm.deep[0], qm.deep[1]} {
		if len(l.rq) != l.outC || len(l.bq) != l.outC {
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

// BenchmarkInt8Forward measures the end-to-end int8 forward on pretrained
// weights; darpa-bench reports the same forward as quant.forward_us.
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
