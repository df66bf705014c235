package yolite

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
)

// lumaOfCanvas builds a luma plane from a canvas for refinement tests.
func lumaOfCanvas(c *render.Canvas) []float32 {
	return LumaPlaneInto(CanvasToTensor(c), 0, nil)
}

func TestRefineBoxSnapsLargeButton(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	btn := geom.Rect{X: 20, Y: 100, W: 52, H: 14}
	c.Fill(btn, render.Blue)
	luma := lumaOfCanvas(c)
	// Prediction off by 2px in every coordinate.
	noisy := geom.BoxF{X: 22, Y: 98, W: 50, H: 16}
	got := RefineBox(luma, InputW, InputH, noisy)
	if got.Rect() != btn {
		t.Fatalf("refined %v, want %v", got.Rect(), btn)
	}
}

func TestRefineBoxSnapsSmallChip(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	chip := geom.Rect{X: 86, Y: 4, W: 7, H: 7}
	c.Fill(chip, render.DarkGray)
	luma := lumaOfCanvas(c)
	noisy := geom.BoxF{X: 84, Y: 5, W: 8, H: 6}
	got := RefineBox(luma, InputW, InputH, noisy)
	if got.Rect() != chip {
		t.Fatalf("refined %v, want %v", got.Rect(), chip)
	}
}

func TestRefineBoxKeepsBoxOnFlatBackground(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.Gray)
	luma := lumaOfCanvas(c)
	b := geom.BoxF{X: 30, Y: 50, W: 20, H: 10}
	got := RefineBox(luma, InputW, InputH, b)
	if got != b {
		t.Fatalf("flat background moved box %v -> %v", b, got)
	}
}

func TestBlobRefineIgnoresNeighbouringWidget(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	chip := geom.Rect{X: 80, Y: 10, W: 6, H: 6}
	c.Fill(chip, render.Black)
	// A separate widget 4px away must not be absorbed.
	c.Fill(geom.Rect{X: 70, Y: 10, W: 4, H: 6}, render.Red)
	luma := lumaOfCanvas(c)
	got := RefineBox(luma, InputW, InputH, geom.BoxFromRect(chip))
	if got.Rect() != chip {
		t.Fatalf("refined %v, want %v (neighbour absorbed?)", got.Rect(), chip)
	}
}

func TestRefineBoxAtScreenEdge(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	chip := geom.Rect{X: InputW - 7, Y: 1, W: 6, H: 6}
	c.Fill(chip, render.Black)
	luma := lumaOfCanvas(c)
	got := RefineBox(luma, InputW, InputH, geom.BoxFromRect(chip))
	// Must not panic and must stay close to the chip.
	if got.IoU(geom.BoxFromRect(chip)) < 0.6 {
		t.Fatalf("edge chip refined to %v", got.Rect())
	}
}

func TestRefineDetectionsInPlace(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	btn := geom.Rect{X: 20, Y: 100, W: 52, H: 14}
	c.Fill(btn, render.Green)
	luma := lumaOfCanvas(c)
	dets := []metrics.Detection{{B: geom.BoxF{X: 21, Y: 101, W: 50, H: 12}}}
	out := RefineDetections(dets, luma, InputW, InputH)
	if out[0].B.Rect() != btn {
		t.Fatalf("refined to %v", out[0].B.Rect())
	}
}
