// Package rcnn implements the two-stage detector family the paper compares
// YOLOv5 against in Table V: region proposals followed by a per-proposal
// CNN classifier, in four flavours — {Faster, Mask} x {VGG-ish, ResNet-ish}.
//
// "Faster" variants classify raw proposals; "Mask" variants add a box
// refinement head (the better-localisation analogue of Mask RCNN's extra
// branch). "VGG-ish" is a plain conv stack; "ResNet-ish" adds a residual
// block. The two-stage design costs one classifier pass per proposal, which
// is where the ~2.5x speed gap the paper reports comes from.
package rcnn

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/render"
)

// Proposal generation parameters.
const (
	// colorBits is the per-channel quantisation used to segment regions;
	// coarser quantisation merges low-contrast widgets into their
	// background, which is the two-stage family's characteristic miss.
	colorBits = 3
	// minSide/maxSide bound plausible option sizes at input resolution.
	minSide = 3
	maxSide = 80
	// MaxProposals caps per-image proposals (sorted by saliency).
	MaxProposals = 60
)

// Propose segments the canvas by quantised colour connected components and
// returns candidate boxes, most salient (highest edge contrast) first.
func Propose(c *render.Canvas) []geom.Rect {
	w, h := c.W, c.H
	key := make([]uint16, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			col := c.At(x, y)
			shift := 8 - colorBits
			key[y*w+x] = uint16(col.R>>shift)<<10 | uint16(col.G>>shift)<<5 | uint16(col.B>>shift)
		}
	}
	// Connected components via BFS with 4-connectivity.
	labels := make([]int32, w*h)
	for i := range labels {
		labels[i] = -1
	}
	type comp struct {
		minX, minY, maxX, maxY int
		count                  int
	}
	var comps []comp
	queue := make([]int, 0, 256)
	for start := 0; start < w*h; start++ {
		if labels[start] >= 0 {
			continue
		}
		id := int32(len(comps))
		comps = append(comps, comp{minX: start % w, minY: start / w, maxX: start % w, maxY: start / w})
		labels[start] = id
		queue = append(queue[:0], start)
		k := key[start]
		for len(queue) > 0 {
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			x, y := i%w, i/w
			cp := &comps[id]
			if x < cp.minX {
				cp.minX = x
			}
			if x > cp.maxX {
				cp.maxX = x
			}
			if y < cp.minY {
				cp.minY = y
			}
			if y > cp.maxY {
				cp.maxY = y
			}
			cp.count++
			for _, ni := range [4]int{i - 1, i + 1, i - w, i + w} {
				if ni < 0 || ni >= w*h {
					continue
				}
				nx := ni % w
				if (ni == i-1 || ni == i+1) && ni/w != y {
					continue
				}
				_ = nx
				if labels[ni] < 0 && key[ni] == k {
					labels[ni] = id
					queue = append(queue, ni)
				}
			}
		}
	}
	type scored struct {
		r     geom.Rect
		score float64
	}
	var cands []scored
	for _, cp := range comps {
		bw := cp.maxX - cp.minX + 1
		bh := cp.maxY - cp.minY + 1
		if bw < minSide || bh < minSide || bw > maxSide || bh > maxSide {
			continue
		}
		// Fill ratio: solid widgets fill their bounding box.
		fill := float64(cp.count) / float64(bw*bh)
		if fill < 0.35 {
			continue
		}
		r := geom.Rect{X: cp.minX, Y: cp.minY, W: bw, H: bh}
		// Saliency: contrast between the region border and its surround.
		score := fill * borderContrast(c, r)
		cands = append(cands, scored{r: r, score: score})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if len(cands) > MaxProposals {
		cands = cands[:MaxProposals]
	}
	out := make([]geom.Rect, len(cands))
	for i, s := range cands {
		out[i] = s.r
	}
	return out
}

// borderContrast estimates the luminance difference between a rect's edge
// pixels and the pixels just outside it.
func borderContrast(c *render.Canvas, r geom.Rect) float64 {
	var inSum, outSum float64
	var n int
	step := max(1, r.W/8)
	for x := r.X; x < r.MaxX(); x += step {
		inSum += c.At(x, r.Y).Luma() + c.At(x, r.MaxY()-1).Luma()
		outSum += c.At(x, r.Y-2).Luma() + c.At(x, r.MaxY()+1).Luma()
		n += 2
	}
	stepY := max(1, r.H/8)
	for y := r.Y; y < r.MaxY(); y += stepY {
		inSum += c.At(r.X, y).Luma() + c.At(r.MaxX()-1, y).Luma()
		outSum += c.At(r.X-2, y).Luma() + c.At(r.MaxX()+1, y).Luma()
		n += 2
	}
	if n == 0 {
		return 0
	}
	d := (inSum - outSum) / float64(n)
	if d < 0 {
		d = -d
	}
	return 1 + d/255
}
