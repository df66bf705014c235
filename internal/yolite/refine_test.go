package yolite

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auigen"
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

// perimeterContrast is the oracle for stepSums.contrast: the perimeter walk
// the large-box search ran before it searched prefix sums. It scores
// rectangle r on the luma plane as the mean absolute luminance step across
// its border, vertical edges over the middle third of the height and
// horizontal edges over the middle half of the width.
func perimeterContrast(luma []float32, w, h int, r geom.Rect) float64 {
	if r.X < 1 || r.Y < 1 || r.MaxX() >= w || r.MaxY() >= h || r.W < 2 || r.H < 2 {
		return -1
	}
	at := func(x, y int) float64 { return float64(luma[y*w+x]) }
	var sum float64
	n := 0
	y0 := r.Y + r.H/3
	y1 := r.MaxY() - r.H/3
	if y1 <= y0 {
		y0, y1 = r.Y+r.H/2, r.Y+r.H/2+1
	}
	for y := y0; y < y1; y++ {
		sum += math.Abs(at(r.X, y) - at(r.X-1, y))           // left edge
		sum += math.Abs(at(r.MaxX()-1, y) - at(r.MaxX(), y)) // right edge
		n += 2
	}
	x0 := r.X + r.W/4
	x1 := r.MaxX() - r.W/4
	if x1 <= x0 {
		x0, x1 = r.X+r.W/2, r.X+r.W/2+1
	}
	for x := x0; x < x1; x++ {
		sum += math.Abs(at(x, r.Y) - at(x, r.Y-1))           // top edge
		sum += math.Abs(at(x, r.MaxY()-1) - at(x, r.MaxY())) // bottom edge
		n += 2
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}

// walkRefine is the oracle for RefineBox on large boxes: the same search,
// scoring every candidate by walking its perimeter.
func walkRefine(luma []float32, w, h int, b geom.BoxF) geom.BoxF {
	r := b.Rect()
	best := refineMinContrast
	bestRect := geom.Rect{}
	found := false
	for dx := -refineShift; dx <= refineShift; dx++ {
		for dy := -refineShift; dy <= refineShift; dy++ {
			for dw := -refineShift; dw <= refineShift; dw++ {
				for dh := -refineShift; dh <= refineShift; dh++ {
					cand := geom.Rect{X: r.X + dx, Y: r.Y + dy, W: r.W + dw, H: r.H + dh}
					if cand.W < 2 || cand.H < 2 {
						continue
					}
					drift := float64(absi(dx) + absi(dy) + absi(dw) + absi(dh))
					score := perimeterContrast(luma, w, h, cand) - refineDriftPenalty*drift
					if score > best {
						best = score
						bestRect = cand
						found = true
					}
				}
			}
		}
	}
	if !found {
		return b
	}
	return geom.BoxFromRect(bestRect)
}

// TestRefineMatchesPerimeterWalk pins the prefix-sum search to the
// perimeter walk, box for box, on the luma planes production builds: the
// generator's screens (true boxes, shifted copies and random boxes) and
// random 8-bit canvases, every large box the search can meet.
func TestRefineMatchesPerimeterWalk(t *testing.T) {
	screens, random := 24, 12
	if testing.Short() {
		screens, random = 6, 3
	}
	rng := rand.New(rand.NewSource(3))
	var planes [][]float32
	var truth [][]geom.BoxF
	cfg := auigen.DatasetConfig{}
	samples := auigen.BuildAUISamples(5, screens, cfg)
	samples = append(samples, auigen.BuildNegativeSamples(6, screens/4, cfg)...)
	for _, s := range samples {
		planes = append(planes, lumaOfCanvas(s.Input))
		var boxes []geom.BoxF
		for _, bx := range s.Boxes {
			boxes = append(boxes, bx.B)
		}
		truth = append(truth, boxes)
	}
	for i := 0; i < random; i++ {
		c := render.NewCanvas(InputW, InputH)
		rng.Read(c.Pix)
		planes = append(planes, lumaOfCanvas(c))
		truth = append(truth, nil)
	}
	boxes, moved := 0, 0
	for i, luma := range planes {
		var dets []metrics.Detection
		add := func(b geom.BoxF) {
			if b.W > smallBoxMax || b.H > smallBoxMax {
				dets = append(dets, metrics.Detection{B: b})
			}
		}
		for _, b := range truth[i] {
			for _, d := range [][4]float64{{0, 0, 0, 0}, {2, -1, -2, 1}, {-2, 2, 3, -2}, {1, 1, -1, 3}} {
				add(geom.BoxF{X: b.X + d[0], Y: b.Y + d[1], W: b.W + d[2], H: b.H + d[3]})
			}
		}
		for j := 0; j < 12; j++ {
			w, h := float64(13+rng.Intn(60)), float64(2+rng.Intn(40))
			if rng.Intn(2) == 0 {
				w, h = h, w
			}
			// Corners up to four pixels off the plane exercise the clamps.
			x, y := float64(rng.Intn(InputW+8)-4)-w/2, float64(rng.Intn(InputH+8)-4)-h/2
			add(geom.BoxF{X: x, Y: y, W: w, H: h})
		}
		// One call refines the plane's boxes through one reused scratch, its
		// windows growing and shrinking from box to box.
		got := RefineDetections(slices.Clone(dets), luma, InputW, InputH)
		for j, d := range dets {
			want := walkRefine(luma, InputW, InputH, d.B)
			if got[j].B != want {
				t.Fatalf("box %v: prefix sums refine to %v, the perimeter walk to %v", d.B, got[j].B, want)
			}
			boxes++
			if want != d.B {
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatalf("refine moved none of %d boxes: the comparison is vacuous", boxes)
	}
	t.Logf("%d boxes, %d moved by refine", boxes, moved)
}

// TestRefineNeverPicksNonFiniteStep: a NaN or infinite luma value (which no
// canvas produces) anywhere around a button never lets the search pick a
// rectangle whose perimeter reads it, and poisoning the button's own border
// does stop the search from snapping to it.
func TestRefineNeverPicksNonFiniteStep(t *testing.T) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	btn := geom.Rect{X: 20, Y: 100, W: 52, H: 14}
	c.Fill(btn, render.Blue)
	clean := lumaOfCanvas(c)
	noisy := geom.BoxF{X: 22, Y: 98, W: 50, H: 16}
	if got := RefineBox(clean, InputW, InputH, noisy); got.Rect() != btn {
		t.Fatalf("clean plane refined to %v, want %v", got.Rect(), btn)
	}
	luma := make([]float32, len(clean))
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for y := btn.Y - 4; y < btn.MaxY()+4; y++ {
			for x := btn.X - 4; x < btn.MaxX()+4; x++ {
				copy(luma, clean)
				luma[y*InputW+x] = bad
				got := RefineBox(luma, InputW, InputH, noisy)
				if got == noisy {
					continue
				}
				if s := perimeterContrast(luma, InputW, InputH, got.Rect()); math.IsNaN(s) || math.IsInf(s, 0) {
					t.Fatalf("%v at (%d,%d): picked %v, whose perimeter reads it", bad, x, y, got.Rect())
				}
			}
		}
		copy(luma, clean)
		luma[(btn.Y+btn.H/2)*InputW+btn.X] = bad // on the button's left edge
		if got := RefineBox(luma, InputW, InputH, noisy); got.Rect() == btn {
			t.Fatalf("%v on the button's border: still snapped to it", bad)
		}
	}
}

// BenchmarkRefine times the large-box search on an AGO-sized box (the
// stride-32 head's 52x12 anchor), two pixels off its button: the prefix-sum
// search RefineBox runs against the perimeter walk it replaced.
func BenchmarkRefine(b *testing.B) {
	c := render.NewCanvas(InputW, InputH)
	c.Fill(c.Bounds(), render.White)
	c.Fill(geom.Rect{X: 22, Y: 100, W: 52, H: 12}, render.Blue)
	luma := lumaOfCanvas(c)
	box := geom.BoxF{X: 24, Y: 98, W: 50, H: 14}
	b.Run("prefix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RefineBox(luma, InputW, InputH, box)
		}
	})
	b.Run("walk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			walkRefine(luma, InputW, InputH, box)
		}
	})
}
