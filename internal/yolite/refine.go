package yolite

import (
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
		out[i] = 0.299*x.Data[base+i] + 0.587*x.Data[base+plane+i] + 0.114*x.Data[base+2*plane+i]
	}
	return out
}

// perimeterContrast scores rectangle r on the luma plane: the mean absolute
// luminance step across its border. Vertical edges are sampled over the
// middle third of the height (pill-shaped buttons only expose their flat
// boundary there); horizontal edges over the middle half of the width.
func perimeterContrast(luma []float32, w, h int, r geom.Rect) float64 {
	if r.X < 1 || r.Y < 1 || r.MaxX() >= w || r.MaxY() >= h || r.W < 2 || r.H < 2 {
		return -1
	}
	at := func(x, y int) float64 { return float64(luma[y*w+x]) }
	abs := func(v float64) float64 {
		if v < 0 {
			return -v
		}
		return v
	}
	var sum float64
	n := 0
	y0 := r.Y + r.H/3
	y1 := r.MaxY() - r.H/3
	if y1 <= y0 {
		y0, y1 = r.Y+r.H/2, r.Y+r.H/2+1
	}
	for y := y0; y < y1; y++ {
		sum += abs(at(r.X, y) - at(r.X-1, y))           // left edge
		sum += abs(at(r.MaxX()-1, y) - at(r.MaxX(), y)) // right edge
		n += 2
	}
	x0 := r.X + r.W/4
	x1 := r.MaxX() - r.W/4
	if x1 <= x0 {
		x0, x1 = r.X+r.W/2, r.X+r.W/2+1
	}
	for x := x0; x < x1; x++ {
		sum += abs(at(x, r.Y) - at(x, r.Y-1))           // top edge
		sum += abs(at(x, r.MaxY()-1) - at(x, r.MaxY())) // bottom edge
		n += 2
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
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

// RefineDetections applies edge snapping to every detection, in place, and
// returns the slice for chaining.
func RefineDetections(dets []metrics.Detection, luma []float32, w, h int) []metrics.Detection {
	for i := range dets {
		dets[i].B = RefineBox(luma, w, h, dets[i].B)
	}
	return dets
}

func absi(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
