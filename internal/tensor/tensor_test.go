package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewAndFill(t *testing.T) {
	x := New(2, 3, 4, 5)
	if x.Len() != 120 {
		t.Fatalf("len=%d", x.Len())
	}
	x.Fill(2.5)
	if x.Data[0] != 2.5 || x.Data[119] != 2.5 {
		t.Fatal("fill failed")
	}
	y := x.Clone()
	y.Fill(0)
	if x.Data[0] != 2.5 {
		t.Fatal("clone aliases data")
	}
}

func TestNewInvalidDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(2, 0)
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Fatal("identical shapes not equal")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Fatal("different shapes equal")
	}
	if New(2, 3).SameShape(New(2, 3, 1)) {
		t.Fatal("different ranks equal")
	}
}

func TestKaimingInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := New(64, 9)
	w.KaimingInit(rng, 9)
	bound := float32(math.Sqrt(6.0 / 9.0))
	var nonzero int
	for _, v := range w.Data {
		if v < -bound || v > bound {
			t.Fatalf("weight %v outside Kaiming bound %v", v, bound)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(w.Data)/2 {
		t.Fatal("init produced mostly zeros")
	}
}

// numericalGrad estimates dLoss/dx[i] by central differences, where loss is
// recomputed by fn.
func numericalGrad(data []float32, i int, fn func() float64) float64 {
	const eps = 1e-2
	orig := data[i]
	data[i] = orig + eps
	lp := fn()
	data[i] = orig - eps
	lm := fn()
	data[i] = orig
	return (lp - lm) / (2 * eps)
}

// lossOf computes a fixed pseudo-random weighted sum of y, a scalar loss with
// known gradient lossW.
func lossOf(y *Tensor, lossW []float32) float64 {
	var s float64
	for i, v := range y.Data {
		s += float64(v) * float64(lossW[i])
	}
	return s
}

func checkLayerGradients(t *testing.T, layer Layer, x *Tensor, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	y := layer.Forward(x, true)
	lossW := make([]float32, y.Len())
	for i := range lossW {
		lossW[i] = rng.Float32()*2 - 1
	}
	dy := New(y.Shape...)
	copy(dy.Data, lossW)
	dx := layer.Backward(dy)

	forward := func() float64 {
		return lossOf(layer.Forward(x, false), lossW)
	}
	// Input gradients: check a sample of positions.
	for trial := 0; trial < 12; trial++ {
		i := rng.Intn(x.Len())
		want := numericalGrad(x.Data, i, forward)
		got := float64(dx.Data[i])
		if math.Abs(got-want) > tol*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, got, want)
		}
	}
	// Parameter gradients.
	for pi, p := range layer.Params() {
		for trial := 0; trial < 8; trial++ {
			i := rng.Intn(p.Len())
			want := numericalGrad(p.Data, i, forward)
			got := float64(p.Grad[i])
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %d grad[%d] = %v, numerical %v", pi, i, got, want)
			}
		}
	}
}

func randInput(rng *rand.Rand, shape ...int) *Tensor {
	x := New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := NewConv2D(rng, 3, 4, 3, 2, 1)
	x := randInput(rng, 2, 3, 8, 6)
	checkLayerGradients(t, conv, x, 2e-2)
}

func TestConv2DStride1Gradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	conv := NewConv2D(rng, 2, 3, 3, 1, 1)
	x := randInput(rng, 1, 2, 5, 5)
	checkLayerGradients(t, conv, x, 2e-2)
}

func TestConv2DOutSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 1, 1, 3, 2, 1)
	oh, ow := conv.OutSize(160, 96)
	if oh != 80 || ow != 48 {
		t.Fatalf("out size = %dx%d, want 80x48", oh, ow)
	}
	conv1x1 := NewConv2D(rng, 1, 1, 1, 1, 0)
	oh, ow = conv1x1.OutSize(20, 12)
	if oh != 20 || ow != 12 {
		t.Fatalf("1x1 out size = %dx%d", oh, ow)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 1, 1, 1, 1, 0)
	conv.W.Fill(2)
	conv.B.Fill(1)
	x := New(1, 1, 2, 2)
	x.Data = []float32{1, 2, 3, 4}
	y := conv.Forward(x, false)
	want := []float32{3, 5, 7, 9}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("y=%v want %v", y.Data, want)
		}
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch did not panic")
		}
	}()
	rng := rand.New(rand.NewSource(1))
	NewConv2D(rng, 3, 4, 3, 1, 1).Forward(New(1, 2, 4, 4), false)
}

func TestBatchNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	bn := NewBatchNorm2D(3)
	// Give gamma/beta non-trivial values.
	for i := range bn.Gamma.Data {
		bn.Gamma.Data[i] = 0.5 + rng.Float32()
		bn.Beta.Data[i] = rng.Float32() - 0.5
	}
	x := randInput(rng, 2, 3, 4, 4)

	// BatchNorm in train mode recomputes batch statistics, so the numerical
	// check must also run in train mode.
	y := bn.Forward(x, true)
	lossW := make([]float32, y.Len())
	for i := range lossW {
		lossW[i] = rng.Float32()*2 - 1
	}
	dy := New(y.Shape...)
	copy(dy.Data, lossW)
	dx := bn.Backward(dy)
	forward := func() float64 { return lossOf(bn.Forward(x, true), lossW) }
	for trial := 0; trial < 15; trial++ {
		i := rng.Intn(x.Len())
		want := numericalGrad(x.Data, i, forward)
		got := float64(dx.Data[i])
		if math.Abs(got-want) > 3e-2*(1+math.Abs(want)) {
			t.Fatalf("bn input grad[%d] = %v, numerical %v", i, got, want)
		}
	}
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	bn := NewBatchNorm2D(2)
	x := randInput(rng, 4, 2, 3, 3)
	// Warm the running statistics with several train passes.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	yTrain := bn.Forward(x, true)
	yEval := bn.Forward(x, false)
	for i := range yTrain.Data {
		diff := math.Abs(float64(yTrain.Data[i] - yEval.Data[i]))
		if diff > 0.15 {
			t.Fatalf("train/eval outputs diverge at %d: %v vs %v", i, yTrain.Data[i], yEval.Data[i])
		}
	}
}

func TestBatchNormNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bn := NewBatchNorm2D(1)
	x := New(2, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*10 + 5 // mean ~10, non-unit variance
	}
	y := bn.Forward(x, true)
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean) > 1e-4 {
		t.Fatalf("normalised mean = %v, want ~0", mean)
	}
}

func TestLeakyReLU(t *testing.T) {
	l := NewLeakyReLU()
	x := New(1, 4)
	x.Data = []float32{-2, -0.5, 0, 3}
	y := l.Forward(x, true)
	want := []float32{-0.2, -0.05, 0, 3}
	for i := range want {
		if math.Abs(float64(y.Data[i]-want[i])) > 1e-6 {
			t.Fatalf("y=%v want %v", y.Data, want)
		}
	}
	dy := New(1, 4)
	dy.Fill(1)
	dx := l.Backward(dy)
	wantG := []float32{0.1, 0.1, 1, 1}
	for i := range wantG {
		if dx.Data[i] != wantG[i] {
			t.Fatalf("dx=%v want %v", dx.Data, wantG)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	p := NewMaxPool2D()
	x := New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	y := p.Forward(x, true)
	want := []float32{5, 7, 13, 15}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("pooled=%v want %v", y.Data, want)
		}
	}
	dy := New(1, 1, 2, 2)
	dy.Data = []float32{1, 2, 3, 4}
	dx := p.Backward(dy)
	if dx.Data[5] != 1 || dx.Data[7] != 2 || dx.Data[13] != 3 || dx.Data[15] != 4 {
		t.Fatalf("pool backward routed wrong: %v", dx.Data)
	}
	var sum float32
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("pool backward leaked gradient: sum=%v", sum)
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lin := NewLinear(rng, 6, 4)
	x := randInput(rng, 3, 6)
	checkLayerGradients(t, lin, x, 2e-2)
}

func TestLinearKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lin := NewLinear(rng, 2, 1)
	lin.W.Data = []float32{2, 3}
	lin.B.Data = []float32{1}
	x := New(1, 2)
	x.Data = []float32{4, 5}
	y := lin.Forward(x, false)
	if y.Data[0] != 2*4+3*5+1 {
		t.Fatalf("y=%v", y.Data[0])
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0)=%v", s)
	}
	if s := Sigmoid(10); s < 0.999 {
		t.Fatalf("Sigmoid(10)=%v", s)
	}
	if s := Sigmoid(-10); s > 0.001 {
		t.Fatalf("Sigmoid(-10)=%v", s)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (x - 3)^2 elementwise.
	p := NewWithGrad(4)
	adam := NewAdam([]*Tensor{p}, 0.1)
	for step := 0; step < 500; step++ {
		for i := range p.Data {
			p.Grad[i] = 2 * (p.Data[i] - 3)
		}
		adam.Step()
	}
	for i, v := range p.Data {
		if math.Abs(float64(v)-3) > 0.01 {
			t.Fatalf("param[%d]=%v did not converge to 3", i, v)
		}
	}
	if p.Grad[0] != 0 {
		t.Fatal("Step must clear gradients")
	}
}

func TestClipGrad(t *testing.T) {
	p := NewWithGrad(2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	ClipGrad([]*Tensor{p}, 1)
	norm := math.Hypot(float64(p.Grad[0]), float64(p.Grad[1]))
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// Below the limit: unchanged.
	p.Grad[0], p.Grad[1] = 0.3, 0.4
	ClipGrad([]*Tensor{p}, 1)
	if p.Grad[0] != 0.3 {
		t.Fatal("clip modified an in-range gradient")
	}
}

func TestTrainTinyNetworkEndToEnd(t *testing.T) {
	// A 2-layer net must learn XOR-ish separable data; this is the
	// smoke test that forward/backward/optimiser compose correctly.
	rng := rand.New(rand.NewSource(42))
	l1 := NewLinear(rng, 2, 8)
	act := NewLeakyReLU()
	l2 := NewLinear(rng, 8, 1)
	params := append(l1.Params(), l2.Params()...)
	adam := NewAdam(params, 0.05)

	inputs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float32{0, 1, 1, 0}
	var lastLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		lastLoss = 0
		for i, in := range inputs {
			x := New(1, 2)
			copy(x.Data, in)
			h := act.Forward(l1.Forward(x, true), true)
			y := l2.Forward(h, true)
			pred := Sigmoid(y.Data[0])
			diff := pred - targets[i]
			lastLoss += float64(diff) * float64(diff)
			dy := New(1, 1)
			dy.Data[0] = 2 * diff * pred * (1 - pred)
			l1.Backward(act.Backward(l2.Backward(dy)))
			adam.Step()
		}
	}
	if lastLoss > 0.05 {
		t.Fatalf("XOR training failed to converge: loss=%v", lastLoss)
	}
}

func BenchmarkConvForward96x160(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 3, 10, 3, 2, 1)
	x := randInput(rng, 1, 3, 160, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}
