package yolite

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
)

func TestGridSizes(t *testing.T) {
	if gh, gw := UPOHeadSpec.GridSize(); gh != 20 || gw != 12 {
		t.Fatalf("UPO grid %dx%d, want 20x12", gh, gw)
	}
	if gh, gw := AGOHeadSpec.GridSize(); gh != 5 || gw != 3 {
		t.Fatalf("AGO grid %dx%d, want 5x3", gh, gw)
	}
}

func TestForwardShapes(t *testing.T) {
	m := NewModel(1)
	x := tensor.New(2, 3, InputH, InputW)
	upo, ago := m.Forward(x, false)
	if upo.Shape[0] != 2 || upo.Shape[1] != 5 || upo.Shape[2] != 20 || upo.Shape[3] != 12 {
		t.Fatalf("UPO head shape %v", upo.Shape)
	}
	if ago.Shape[1] != 5 || ago.Shape[2] != 5 || ago.Shape[3] != 3 {
		t.Fatalf("AGO head shape %v", ago.Shape)
	}
}

func TestEncodeTargets(t *testing.T) {
	boxes := []dataset.Box{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 85, Y: 5, W: 6, H: 6}}, // centre (88, 8)
	}
	tg := encodeTargets(boxes, UPOHeadSpec)
	_, gw := UPOHeadSpec.GridSize()
	col, row := 88/8, 8/8
	cell := row*gw + col
	if tg.obj[cell] != 1 {
		t.Fatalf("cell (%d,%d) not marked positive", row, col)
	}
	if math.Abs(float64(tg.gx[cell])-0.0) > 1e-6 || math.Abs(float64(tg.gy[cell])-0.0) > 1e-6 {
		t.Fatalf("offsets gx=%v gy=%v, want 0,0 (centre on cell boundary)", tg.gx[cell], tg.gy[cell])
	}
	if math.Abs(float64(tg.gw[cell])-math.Log(1)) > 1e-6 {
		t.Fatalf("gw=%v, want log(6/6)=0", tg.gw[cell])
	}
	// Multi-cell assignment: the centre cell plus its two nearest
	// neighbours are positive (YOLOv5-style).
	sum := float32(0)
	for _, v := range tg.obj {
		sum += v
	}
	if sum != 3 {
		t.Fatalf("%v positive cells, want 3 (centre + 2 neighbours)", sum)
	}
}

func TestEncodeTargetsIgnoresOtherClass(t *testing.T) {
	boxes := []dataset.Box{{Class: dataset.ClassAGO, B: geom.BoxF{X: 20, Y: 100, W: 52, H: 12}}}
	tg := encodeTargets(boxes, UPOHeadSpec)
	for _, v := range tg.obj {
		if v != 0 {
			t.Fatal("UPO head encoded an AGO box")
		}
	}
}

func TestEncodeTargetsLargerBoxWinsCell(t *testing.T) {
	boxes := []dataset.Box{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 1, Y: 1, W: 4, H: 4}},
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 0, Y: 0, W: 7, H: 7}},
	}
	tg := encodeTargets(boxes, UPOHeadSpec)
	// Both centres fall in cell (0,0); the 7x7 must win.
	if want := float32(math.Log(7.0 / 6.0)); math.Abs(float64(tg.gw[0]-want)) > 1e-6 {
		t.Fatalf("gw=%v, want %v (larger box)", tg.gw[0], want)
	}
}

// TestEncodeDecodeRoundTrip writes perfect logits for a ground-truth box and
// checks the decoder recovers it at high IoU — the consistency contract
// between training targets and inference decoding.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Ground truth is pixel aligned, like every widget in the dataset
	// (decoded boxes snap to the pixel grid).
	gt := dataset.Box{Class: dataset.ClassUPO, B: geom.BoxF{X: 83, Y: 4, W: 7, H: 7}}
	tg := encodeTargets([]dataset.Box{gt}, UPOHeadSpec)
	gh, gw := UPOHeadSpec.GridSize()
	out := tensor.New(1, 5, gh, gw)
	plane := gh * gw
	out.Fill(-20) // every objectness strongly negative
	for cell := 0; cell < plane; cell++ {
		if tg.obj[cell] != 1 {
			continue
		}
		out.Data[cell] = 20 // objectness logit -> sigmoid ~1
		// Centre offsets are linear (sigmoid-free), matching headLoss.
		out.Data[plane+cell] = tg.gx[cell]
		out.Data[2*plane+cell] = tg.gy[cell]
		out.Data[3*plane+cell] = tg.gw[cell]
		out.Data[4*plane+cell] = tg.gh[cell]
	}
	dets := metrics.NMS(DecodeHead(out, 0, UPOHeadSpec, 0.5), 0.2)
	if len(dets) != 1 {
		t.Fatalf("decoded %d detections after NMS, want 1", len(dets))
	}
	if iou := dets[0].B.IoU(gt.B); iou < 0.97 {
		t.Fatalf("round-trip IoU = %v: decoded %v, truth %v", iou, dets[0].B, gt.B)
	}
}

func TestBCEWithLogits(t *testing.T) {
	if l := bceWithLogits(0, 1); math.Abs(l-math.Log(2)) > 1e-9 {
		t.Fatalf("bce(0,1)=%v", l)
	}
	if l := bceWithLogits(20, 1); l > 1e-6 {
		t.Fatalf("bce(20,1)=%v, want ~0", l)
	}
	if l := bceWithLogits(-20, 0); l > 1e-6 {
		t.Fatalf("bce(-20,0)=%v, want ~0", l)
	}
	if l := bceWithLogits(-20, 1); l < 19 {
		t.Fatalf("bce(-20,1)=%v, want ~20", l)
	}
}

func TestHeadLossGradientDirection(t *testing.T) {
	// A positive cell with a very negative objectness logit must receive a
	// negative gradient (pushing the logit up).
	gh, gw := UPOHeadSpec.GridSize()
	out := tensor.New(1, 5, gh, gw)
	out.Fill(0)
	tg := encodeTargets([]dataset.Box{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 0, Y: 0, W: 6, H: 6}},
	}, UPOHeadSpec)
	dOut := tensor.New(out.Shape...)
	loss := headLoss(out, []target{tg}, UPOHeadSpec, dOut)
	if loss <= 0 {
		t.Fatal("loss should be positive")
	}
	if dOut.Data[0] >= 0 {
		t.Fatalf("positive-cell obj gradient = %v, want negative", dOut.Data[0])
	}
	// A negative cell at logit 0 must be pushed down (positive gradient).
	if dOut.Data[gh*gw-1] <= 0 {
		t.Fatalf("negative-cell obj gradient = %v, want positive", dOut.Data[gh*gw-1])
	}
}

func TestCanvasToTensorNormalised(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.RGB(255, 0, 128))
	x := CanvasToTensor(c)
	plane := InputH * InputW
	if x.Data[0] != 1 {
		t.Fatalf("R = %v, want 1", x.Data[0])
	}
	if x.Data[plane] != 0 {
		t.Fatalf("G = %v, want 0", x.Data[plane])
	}
	if math.Abs(float64(x.Data[2*plane])-128.0/255.0) > 1e-6 {
		t.Fatalf("B = %v", x.Data[2*plane])
	}
}

// TestCanvasToTensorEveryByte: every channel byte normalises to exactly
// float32(v)/255, whichever channel it sits in.
func TestCanvasToTensorEveryByte(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	for o := 0; o < InputW*InputH; o++ {
		c.Pix[4*o], c.Pix[4*o+1], c.Pix[4*o+2] = byte(o), byte(o+85), byte(o+170)
	}
	x := CanvasToTensor(c)
	plane := InputH * InputW
	for ch := 0; ch < 3; ch++ {
		for o := 0; o < plane; o++ {
			v := c.Pix[4*o+ch]
			if got, want := x.Data[ch*plane+o], float32(v)/255; got != want {
				t.Fatalf("channel %d byte %d normalised to %v, want %v", ch, v, got, want)
			}
		}
	}
}

// TestCanvasesToTensorMatchesPerItem: the batched writer puts every canvas,
// whatever its size, exactly where a batch of one would.
func TestCanvasesToTensorMatchesPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var shots []*render.Canvas
	for _, sz := range [][2]int{{InputW, InputH}, {2 * InputW, 2 * InputH}, {InputW, InputH}, {4 * InputW, 4 * InputH}, {2 * InputW, 2 * InputH}} {
		c := render.NewCanvas(sz[0], sz[1])
		rng.Read(c.Pix)
		shots = append(shots, c)
	}
	x := CanvasesToTensor(shots)
	per := 3 * InputH * InputW
	for i, c := range shots {
		want := CanvasToTensor(c).Data
		for j, v := range x.Data[i*per : (i+1)*per] {
			if v != want[j] {
				t.Fatalf("item %d element %d: batched %v, alone %v", i, j, v, want[j])
			}
		}
	}
	if CanvasesToTensor(nil) != nil {
		t.Fatal("an empty batch built a tensor")
	}
}

// TestDecodeBatchCancelled: a cancelled context gets nil and its error from
// the parallel decode (N > 1) and the inline one (N = 1) alike.
func TestDecodeBatchCancelled(t *testing.T) {
	m := NewModel(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 3} {
		shots := make([]*render.Canvas, n)
		for i := range shots {
			shots[i] = render.NewCanvas(InputW, InputH)
		}
		x := CanvasesToTensor(shots)
		upo, ago := m.Forward(x, false)
		if out, err := DecodeBatch(ctx, x, upo, ago, 0, true, nil); out != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("N=%d: cancelled decode returned %d items, err %v", n, len(out), err)
		}
		if out, err := DecodeBatch(context.Background(), x, upo, ago, 0, true, nil); len(out) != n || err != nil {
			t.Fatalf("N=%d: decode returned %d items, err %v", n, len(out), err)
		}
	}
}

func TestCanvasToTensorResizes(t *testing.T) {
	c := render.NewCanvas(192, 320)
	c.Fill(c.Bounds(), render.White)
	x := CanvasToTensor(c)
	if x.Shape[2] != InputH || x.Shape[3] != InputW {
		t.Fatalf("tensor shape %v", x.Shape)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewModel(3)
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(99)
	if err := m2.Load(path); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 3, InputH, InputW)
	u1, a1 := m.Forward(x, false)
	u2, a2 := m2.Forward(x, false)
	for i := range u1.Data {
		if u1.Data[i] != u2.Data[i] {
			t.Fatal("UPO head differs after load")
		}
	}
	for i := range a1.Data {
		if a1.Data[i] != a2.Data[i] {
			t.Fatal("AGO head differs after load")
		}
	}
}

// TestTrainingLearns is the end-to-end smoke test: a short training run on a
// small synthetic dataset must drive the loss down substantially and reach a
// usable F1 at a moderate IoU threshold.
func TestTrainingLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test skipped in -short mode")
	}
	samples := auigen.BuildAUISamples(21, 64, auigen.DatasetConfig{})
	var losses []float64
	m := Train(samples, TrainConfig{
		Epochs: 12, Seed: 2,
		Progress: func(_ int, l float64) { losses = append(losses, l) },
	})
	if len(losses) != 12 {
		t.Fatalf("%d progress callbacks", len(losses))
	}
	if losses[len(losses)-1] > losses[0]*0.35 {
		t.Fatalf("loss barely moved: %v -> %v", losses[0], losses[len(losses)-1])
	}
	// A 30-second smoke run cannot reach paper accuracy; it must merely
	// demonstrate genuine learning on its own training data.
	eval := Evaluate(m, samples, 0.5)
	if f1 := eval.All().F1(); f1 < 0.3 {
		t.Fatalf("training-set F1@0.5 = %v, want >= 0.3", f1)
	}
}

// TestForwardPooledAllocsFlat pins the steady-state allocation count of the
// pooled float forward at zero on a flat screen — a light background with a
// dark rectangle: activations and im2col panels recycle through their
// scratch, the head maps through the pool.
// GOMAXPROCS is pinned to 1 because the parallel branch builds a closure by
// design.
func TestForwardPooledAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewModel(5)
	m.SetPool(tensor.NewPool())
	x := tensor.New(1, 3, InputH, InputW)
	for i := range x.Data {
		x.Data[i] = 0.9
		if y, xx := i/InputW%InputH, i%InputW; y >= 60 && y < 100 && xx >= 20 && xx < 70 {
			x.Data[i] = 0.2
		}
	}
	warm := func() {
		upo, ago := m.Forward(x, false)
		m.Pool.Put(upo)
		m.Pool.Put(ago)
	}
	warm()
	if avg := testing.AllocsPerRun(10, warm); avg != 0 {
		t.Fatalf("pooled float forward on a flat screen allocates %v per op, want 0", avg)
	}
}

// BenchmarkConvScreens is BenchmarkConvKernels' other extreme: the six
// backbone convolutions at N=8 on what they see in service — generator
// screens run through the real fused layer chain; BenchmarkConvKernels
// feeds random data. Each block runs standalone on its producer's output;
// chain is the whole forward (infer), heads included.
func BenchmarkConvScreens(b *testing.B) {
	m := NewModel(1)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		b.Skip("no pretrained weights")
	}
	cfg := auigen.DatasetConfig{}
	samples := append(auigen.BuildAUISamples(1, 6, cfg), auigen.BuildNegativeSamples(2, 2, cfg)...)
	x := BatchToTensor(samples)
	p := tensor.NewPool()
	m.SetPool(p)
	b.Run("chain", func(b *testing.B) {
		for range b.N {
			upo, ago, _ := m.infer(x, nil)
			p.Put(upo)
			p.Put(ago)
		}
	})
	for i, blk := range m.fusedBlocks() {
		b.Run([]string{"b1", "b2", "b3", "b3b", "b4", "b5"}[i], func(b *testing.B) {
			for range b.N {
				p.Put(blk.ForwardCancel(x, p, nil))
			}
		})
		x = blk.ForwardCancel(x, nil, nil)
	}
}

// TestGradientsPinned pins training's forward and backward walks over Blocks
// bit for bit: the hash of every Params() gradient after one seeded training
// step's Forward and Backward, on generator screens scored by the training
// loss. TestTrainingLearns checks only that the loss falls.
func TestGradientsPinned(t *testing.T) {
	m := NewModel(5)
	batch := auigen.BuildAUISamples(7, 3, auigen.DatasetConfig{})
	upo, ago := m.Forward(BatchToTensor(batch), true)
	upoT, agoT := make([]target, len(batch)), make([]target, len(batch))
	for i, s := range batch {
		upoT[i], agoT[i] = encodeTargets(s.Boxes, UPOHeadSpec), encodeTargets(s.Boxes, AGOHeadSpec)
	}
	dUPO, dAGO := tensor.New(upo.Shape...), tensor.New(ago.Shape...)
	headLoss(upo, upoT, UPOHeadSpec, dUPO)
	headLoss(ago, agoT, AGOHeadSpec, dAGO)
	m.Backward(dUPO, dAGO)
	h := fnv.New64a()
	for _, p := range m.Params() {
		for _, g := range p.Grad {
			binary.Write(h, binary.LittleEndian, math.Float32bits(g))
		}
	}
	if got, want := h.Sum64(), uint64(0xee9e37156e2f5622); got != want {
		t.Fatalf("gradient hash %#x, want %#x", got, want)
	}
}
