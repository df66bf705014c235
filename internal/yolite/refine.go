package yolite

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Edge-snapping refinement.
//
// The paper's YOLOv5 (7M+ parameters, trained on a GPU server) regresses
// boxes to sub-pixel precision natively; the laptop-scale backbone used here
// plateaus at ~1px error, which the strict IoU >= 0.9 protocol punishes
// severely. RefineBox recovers that precision deterministically: it searches
// a small neighbourhood of the predicted box for the rectangle whose border
// maximises perimeter luminance contrast, exploiting the fact that UI
// widgets are solid shapes with crisp pixel boundaries. DESIGN.md records
// this as a substitution; BenchmarkAblationNoRefine measures its
// contribution.
const (
	// refineShift is the search radius (pixels) for each of the four box
	// parameters.
	refineShift = 3
	// refineMinContrast is the minimum mean perimeter step (0..1 luma)
	// required to accept a refined box; below it the network's coordinates
	// are kept.
	refineMinContrast = 0.035
	// refineDriftPenalty discourages drifting far from the network's
	// prediction when contrast is flat.
	refineDriftPenalty = 0.002
)

// LumaPlaneInto extracts the luminance plane of batch item n from a
// normalised [N, 3, H, W] tensor, writing into dst when it is large enough so
// pooled inference reuses one scratch plane across decodes. It returns the
// filled plane (dst re-sliced, or a fresh slice).
func LumaPlaneInto(x *tensor.Tensor, n int, dst []float32) []float32 {
	h, w := x.Shape[2], x.Shape[3]
	plane := h * w
	base := n * 3 * plane
	out := dst
	if cap(out) < plane {
		out = make([]float32, plane)
	}
	out = out[:plane]
	for i := 0; i < plane; i++ {
		out[i] = float32(0.299*x.Data[base+i]) + float32(0.587*x.Data[base+plane+i]) + float32(0.114*x.Data[base+2*plane+i])
	}
	return out
}

// blobRefine handles small boxes (corner close-buttons): it estimates the
// local background from the border of a padded window, thresholds the
// contrast against it and returns the bounding box of the salient blob —
// the chip-and-cross of a UPO. Transparent-background UPOs produce blobs
// smaller than their view bounds, which is exactly the paper's reported
// false-negative mode.
func blobRefine(luma []float32, w, h int, b geom.BoxF, blobContrast float64) geom.BoxF {
	r := b.Rect().Inset(-refineShift).Clamp(geom.Rect{W: w, H: h})
	if r.W < 3 || r.H < 3 {
		return b
	}
	// Background: median luma of a tight ring just outside the predicted
	// box. Unlike the outer window border, the ring stays inside the
	// widget's immediate surround, so a nearby scrim edge, card boundary
	// or system bar cannot skew the estimate.
	ring := b.Rect().Inset(-2).Clamp(geom.Rect{W: w, H: h})
	var border []float64
	for x := ring.X; x < ring.MaxX(); x++ {
		border = append(border, float64(luma[ring.Y*w+x]), float64(luma[(ring.MaxY()-1)*w+x]))
	}
	for y := ring.Y + 1; y < ring.MaxY()-1; y++ {
		border = append(border, float64(luma[y*w+ring.X]), float64(luma[y*w+ring.MaxX()-1]))
	}
	if len(border) == 0 {
		return b
	}
	sort.Float64s(border)
	bg := border[len(border)/2]
	marked := make([]bool, r.W*r.H)
	for y := 0; y < r.H; y++ {
		for x := 0; x < r.W; x++ {
			d := float64(luma[(r.Y+y)*w+r.X+x]) - bg
			if d < 0 {
				d = -d
			}
			marked[y*r.W+x] = d >= blobContrast
		}
	}
	// Flood-fill the component connected to the predicted box, so nearby
	// unrelated widgets cannot inflate the blob.
	seedArea := b.Rect().Intersect(r)
	visited := make([]bool, r.W*r.H)
	var queue []int
	for y := seedArea.Y; y < seedArea.MaxY(); y++ {
		for x := seedArea.X; x < seedArea.MaxX(); x++ {
			i := (y-r.Y)*r.W + (x - r.X)
			if marked[i] && !visited[i] {
				visited[i] = true
				queue = append(queue, i)
			}
		}
	}
	minX, minY, maxX, maxY, count := r.MaxX(), r.MaxY(), r.X-1, r.Y-1, 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		x, y := i%r.W+r.X, i/r.W+r.Y
		count++
		if x < minX {
			minX = x
		}
		if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
		for _, d := range [8][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}} {
			nx, ny := i%r.W+d[0], i/r.W+d[1]
			if nx < 0 || nx >= r.W || ny < 0 || ny >= r.H {
				continue
			}
			ni := ny*r.W + nx
			if marked[ni] && !visited[ni] {
				visited[ni] = true
				queue = append(queue, ni)
			}
		}
	}
	if count < 4 || maxX < minX || maxY < minY {
		return b
	}
	return geom.BoxF{X: float64(minX), Y: float64(minY), W: float64(maxX - minX + 1), H: float64(maxY - minY + 1)}
}

// smallBoxMax is the size (pixels) below which blob refinement replaces
// perimeter-contrast search.
const smallBoxMax = 12

// RefineBox snaps b to the underlying widget's pixel boundary: small boxes
// (corner close-buttons) use blob extraction, larger boxes (buttons, cards)
// use a local search maximising perimeter contrast. The box is returned
// unchanged when no candidate clears the contrast floor.
func RefineBox(luma []float32, w, h int, b geom.BoxF) geom.BoxF {
	var s stepSums
	return s.refine(luma, w, h, b)
}

// RefineDetections applies edge snapping to every detection, in place, and
// returns the slice for chaining. The boxes share one search scratch.
func RefineDetections(dets []metrics.Detection, luma []float32, w, h int) []metrics.Detection {
	var s stepSums
	for i := range dets {
		dets[i].B = s.refine(luma, w, h, dets[i].B)
	}
	return dets
}

// stepSums is the large-box search's scratch: float64 prefix sums of the
// absolute luma steps over the box's search window win, so a candidate's
// perimeter costs four lookups instead of a walk. col[k*win.W+i] sums the
// horizontal steps |L(x,y)-L(x-1,y)| of window column i over its first k
// rows; row[k*(win.W+1)+i] sums the vertical steps |L(x,y)-L(x,y-1)| of
// window row k over its first i columns.
//
// The sums are exact. On every luma plane production builds (LumaPlaneInto
// over a canvasInto tensor, rcnn's lumaOf) a value is 0 or a float32 of at
// least 0.114/255 > 2^-12, so with its 24-bit significand a multiple of
// 2^-35, and at most ~1. A step is then a multiple of 2^-35 below 2, and a
// sum of fewer than 2^17 steps is a multiple of 2^-35 below 2^18: 53 bits,
// held exactly by a float64. No partial sum rounds, the summation order
// cannot change a bit, and every score equals the perimeter walk's (kept in
// refine_test.go as the oracle).
// A non-finite step (luma no canvas produces) makes every sum through it NaN
// or +Inf, and the search takes finite scores only.
type stepSums struct {
	win           geom.Rect
	buf, col, row []float64
}

// build fills the sums over win, whose every pixel has a left and an upper
// neighbour in the w-wide plane.
func (s *stepSums) build(luma []float32, w int, win geom.Rect) {
	s.win = win
	nc, nr := (win.H+1)*win.W, win.H*(win.W+1)
	s.buf = slices.Grow(s.buf[:0], nc+nr)[:nc+nr]
	s.col, s.row = s.buf[:nc], s.buf[nc:]
	clear(s.col[:win.W])
	for k := 0; k < win.H; k++ {
		at, c, r := (win.Y+k)*w+win.X, s.col[k*win.W:(k+2)*win.W], s.row[k*(win.W+1):(k+1)*(win.W+1)]
		r[0] = 0
		for i := 0; i < win.W; i++ {
			c[win.W+i] = c[i] + math.Abs(float64(luma[at+i])-float64(luma[at+i-1]))
			r[i+1] = r[i] + math.Abs(float64(luma[at+i])-float64(luma[at+i-w]))
		}
	}
}

// contrast scores candidate r, which lies inside the window: the mean
// absolute luminance step across its border. Vertical edges are sampled over
// the middle third of the height (pill-shaped buttons only expose their flat
// boundary there); horizontal edges over the middle half of the width. With
// r.W, r.H >= 2 both samples hold at least one row or column.
func (s *stepSums) contrast(r geom.Rect) float64 {
	W, X, Y := s.win.W, r.X-s.win.X, r.Y-s.win.Y
	y0, y1, x0, x1 := Y+r.H/3, Y+r.H-r.H/3, X+r.W/4, X+r.W-r.W/4
	right, top, bottom := X+r.W, Y*(W+1), (Y+r.H)*(W+1)
	sum := (s.col[y1*W+X] - s.col[y0*W+X]) + (s.col[y1*W+right] - s.col[y0*W+right]) +
		(s.row[top+x1] - s.row[top+x0]) + (s.row[bottom+x1] - s.row[bottom+x0])
	return sum / float64(2*(y1-y0)+2*(x1-x0))
}

// refine is RefineBox with s as the search scratch.
func (s *stepSums) refine(luma []float32, w, h int, b geom.BoxF) geom.BoxF {
	if b.W <= smallBoxMax && b.H <= smallBoxMax {
		// Escalate the contrast threshold until the blob stops ballooning
		// into neighbouring content: a close button's true extent never
		// exceeds the prediction by much more than the search radius.
		for _, th := range []float64{0.10, 0.18, 0.28} {
			blob := blobRefine(luma, w, h, b, th)
			if blob.W <= b.W+4 && blob.H <= b.H+4 {
				return blob
			}
		}
		return b
	}
	r := b.Rect()
	// Candidates' border steps lie in columns r.X-3 .. r.MaxX()+6 and rows
	// r.Y-3 .. r.MaxY()+6, and a scorable one is a pixel inside the plane.
	win := geom.Rect{X: r.X - refineShift, Y: r.Y - refineShift, W: r.W + 3*refineShift + 1, H: r.H + 3*refineShift + 1}
	win = win.Intersect(geom.Rect{X: 1, Y: 1, W: w - 1, H: h - 1})
	if win.Empty() {
		return b
	}
	s.build(luma, w, win)
	best := refineMinContrast
	bestRect := geom.Rect{}
	for dx := -refineShift; dx <= refineShift; dx++ {
		for dy := -refineShift; dy <= refineShift; dy++ {
			for dw := -refineShift; dw <= refineShift; dw++ {
				for dh := -refineShift; dh <= refineShift; dh++ {
					cand := geom.Rect{X: r.X + dx, Y: r.Y + dy, W: r.W + dw, H: r.H + dh}
					if cand.W < 2 || cand.H < 2 || cand.X < 1 || cand.Y < 1 || cand.MaxX() >= w || cand.MaxY() >= h {
						continue
					}
					drift := float64(absi(dx) + absi(dy) + absi(dw) + absi(dh))
					score := s.contrast(cand) - float64(refineDriftPenalty*drift)
					if score > best && score < math.Inf(1) {
						best = score
						bestRect = cand
					}
				}
			}
		}
	}
	if bestRect.Empty() {
		return b
	}
	return geom.BoxFromRect(bestRect)
}

func absi(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
