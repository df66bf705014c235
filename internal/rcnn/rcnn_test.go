package rcnn

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/auigen"
	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/yolite"
)

func TestVariantNames(t *testing.T) {
	want := []string{
		"Faster RCNN+VGG16", "Faster RCNN+ResNet50",
		"Mask RCNN+VGG16", "Mask RCNN+ResNet50",
	}
	for i, v := range Variants {
		if v.Name() != want[i] {
			t.Fatalf("variant %d name %q, want %q", i, v.Name(), want[i])
		}
	}
}

func TestProposeFindsSolidButton(t *testing.T) {
	c := render.NewCanvas(96, 160)
	c.Fill(c.Bounds(), render.White)
	button := geom.Rect{X: 24, Y: 100, W: 48, H: 14}
	c.Fill(button, render.Red)
	props := Propose(c)
	if len(props) == 0 {
		t.Fatal("no proposals on a screen with one button")
	}
	best := 0.0
	for _, p := range props {
		if iou := p.IoU(button); iou > best {
			best = iou
		}
	}
	if best < 0.9 {
		t.Fatalf("best proposal IoU %v for a solid button, want >= 0.9", best)
	}
}

func TestProposeFindsSmallChip(t *testing.T) {
	c := render.NewCanvas(96, 160)
	c.Fill(c.Bounds(), render.White)
	chip := geom.Rect{X: 86, Y: 4, W: 6, H: 6}
	c.Fill(chip, render.DarkGray)
	props := Propose(c)
	best := 0.0
	for _, p := range props {
		if iou := p.IoU(chip); iou > best {
			best = iou
		}
	}
	if best < 0.9 {
		t.Fatalf("best proposal IoU %v for a corner chip", best)
	}
}

func TestProposeIgnoresFullScreenAndTiny(t *testing.T) {
	c := render.NewCanvas(96, 160)
	c.Fill(c.Bounds(), render.Blue) // one giant region
	c.Set(50, 50, render.White)     // one 1px region
	for _, p := range Propose(c) {
		if p.W > maxSide || p.H > maxSide {
			t.Fatalf("oversized proposal %v", p)
		}
		if p.W < minSide || p.H < minSide {
			t.Fatalf("undersized proposal %v", p)
		}
	}
}

func TestProposalCap(t *testing.T) {
	gen := auigen.New(1, auigen.Config{})
	_ = gen
	samples := auigen.BuildAUISamples(2, 3, auigen.DatasetConfig{})
	for _, s := range samples {
		if n := len(Propose(s.Input)); n > MaxProposals {
			t.Fatalf("%d proposals exceeds cap %d", n, MaxProposals)
		}
	}
}

func TestApplyDeltasIdentity(t *testing.T) {
	r := geom.Rect{X: 10, Y: 20, W: 30, H: 40}
	b := applyDeltas(r, []float32{0, 0, 0, 0})
	if b.Rect() != r {
		t.Fatalf("zero deltas changed box: %v -> %v", r, b.Rect())
	}
}

func TestApplyDeltasShift(t *testing.T) {
	r := geom.Rect{X: 10, Y: 20, W: 30, H: 40}
	b := applyDeltas(r, []float32{0.1, 0, 0, 0}) // dx = 0.1 * 30 = 3
	if b.X != 13 {
		t.Fatalf("dx shift: got X=%v, want 13", b.X)
	}
}

func TestCropShape(t *testing.T) {
	c := render.NewCanvas(96, 160)
	c.Fill(c.Bounds(), render.Green)
	x := crop(c, geom.Rect{X: 80, Y: 2, W: 10, H: 10})
	if x.Shape[2] != cropSize || x.Shape[3] != cropSize {
		t.Fatalf("crop shape %v", x.Shape)
	}
	// Pixels normalised.
	for _, v := range x.Data {
		if v < 0 || v > 1 {
			t.Fatalf("crop value %v out of range", v)
		}
	}
}

func TestCropAtEdgeDoesNotPanic(t *testing.T) {
	c := render.NewCanvas(96, 160)
	crop(c, geom.Rect{X: -5, Y: -5, W: 4, H: 4})
	crop(c, geom.Rect{X: 94, Y: 158, W: 10, H: 10})
}

func TestForwardShapes(t *testing.T) {
	for _, v := range Variants {
		m := New(v, 1)
		cls, box := m.forward(crop(render.NewCanvas(96, 160), geom.Rect{X: 0, Y: 0, W: 10, H: 10}), false)
		if cls.Len() != numClasses || box.Len() != numDeltas {
			t.Fatalf("%s: head sizes %d/%d", v.Name(), cls.Len(), box.Len())
		}
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := softmax([]float32{1, 2, 3})
	sum := p[0] + p[1] + p[2]
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax sum %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax ordering wrong: %v", p)
	}
}

func TestTrainingImprovesDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("training-based test skipped in -short mode")
	}
	samples := auigen.BuildAUISamples(5, 30, auigen.DatasetConfig{})
	m := Train(Variant{Refine: true, Residual: true}, samples, TrainConfig{Epochs: 6, Seed: 2})
	eval := yolite.Evaluate(m, samples, 0.5)
	if f1 := eval.All().F1(); f1 < 0.25 {
		t.Fatalf("trained Mask RCNN F1@0.5 = %v on training data, want >= 0.25", f1)
	}
}

func TestPredictTensorRoundTrip(t *testing.T) {
	samples := auigen.BuildAUISamples(6, 2, auigen.DatasetConfig{})
	m := New(Variants[0], 1)
	// Contract: the seam on the canvas's tensor equals the two-stage pipeline
	// on the canvas.
	a, err := m.predict(context.Background(), samples[0].Input, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b := yolite.PredictInput(m, samples[0].Input, 0.5)
	if len(a) != len(b) {
		t.Fatalf("canvas/tensor predictions differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].B != b[i].B || a[i].Class != b[i].Class {
			t.Fatalf("prediction %d differs", i)
		}
	}
}

func TestBuildExamplesLabels(t *testing.T) {
	samples := auigen.BuildAUISamples(7, 10, auigen.DatasetConfig{})
	rng := rand.New(rand.NewSource(3))
	examples := buildExamples(samples, rng)
	if len(examples) == 0 {
		t.Fatal("no training examples built")
	}
	var pos, neg int
	for _, ex := range examples {
		switch ex.cls {
		case 0:
			neg++
		case 1, 2:
			pos++
		default:
			t.Fatalf("bad class %d", ex.cls)
		}
	}
	if pos == 0 {
		t.Fatal("no positive proposals — proposal generator misses all options")
	}
	if neg == 0 {
		t.Fatal("no negative proposals")
	}
	for _, ex := range examples {
		if ex.cls != 0 {
			for _, d := range ex.deltas {
				if d < -2 || d > 2 {
					t.Fatalf("extreme delta %v for a >=0.5 IoU match", d)
				}
			}
		}
	}
}
