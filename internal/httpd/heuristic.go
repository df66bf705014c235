package httpd

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// PixelHeuristic is the front end's degraded-path detector: a microsecond
// pixel-statistics scan that stands in when the scheduler sheds a request.
// The in-process fleet degrades onto the frauddroid view-metadata heuristic,
// but a network client sends pixels only — no view hierarchy — so the
// degraded detector here works from the screenshot alone: the AGO is found as
// the largest connected vivid region (the paper's app-guided options are
// deliberately big, saturated and central), and a UPO is proposed as the
// strongest small luma outlier in the band just above it (close buttons sit
// small and low-contrast at a dialog's top edge). Like frauddroid, the
// heuristic is binary: detections carry confidence 1 and the threshold is
// ignored. Precision is deliberately traded for cost — this answers in the
// time the admission layer takes to say no.
type PixelHeuristic struct{}

var _ detect.Detector = PixelHeuristic{}

// Name implements detect.Detector.
func (PixelHeuristic) Name() string { return "pixel-heuristic" }

// heurCell is the analysis grid pitch in pixels.
const heurCell = 8

// PredictBatchCtx scans each item on its own, checking the context between
// items; one scan is too short to checkpoint. A tensor that is not
// [N, 3, H, W] holds no screens to scan.
func (PixelHeuristic) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if x == nil || len(x.Shape) != 4 {
		return nil, nil
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for n := range out {
		if n > 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[n] = scanItem(x, n)
	}
	return out, nil
}

// scanItem scans batch item n. Detections are in x's own coordinate system,
// like any backend.
func scanItem(x *tensor.Tensor, n int) []metrics.Detection {
	h, w := x.Shape[2], x.Shape[3]
	gh, gw := h/heurCell, w/heurCell
	if gh < 3 || gw < 3 {
		return nil
	}
	plane := h * w
	base := n * 3 * plane

	// Per-cell mean colour.
	type cell struct{ r, g, b float64 }
	cells := make([]cell, gh*gw)
	for cy := 0; cy < gh; cy++ {
		for cx := 0; cx < gw; cx++ {
			var c cell
			for dy := 0; dy < heurCell; dy++ {
				row := (cy*heurCell + dy) * w
				for dx := 0; dx < heurCell; dx++ {
					i := row + cx*heurCell + dx
					c.r += float64(x.Data[base+i])
					c.g += float64(x.Data[base+plane+i])
					c.b += float64(x.Data[base+2*plane+i])
				}
			}
			inv := 1.0 / float64(heurCell*heurCell)
			cells[cy*gw+cx] = cell{c.r * inv, c.g * inv, c.b * inv}
		}
	}
	luma := func(c cell) float64 { return 0.299*c.r + 0.587*c.g + 0.114*c.b }
	sat := func(c cell) float64 {
		max, min := c.r, c.r
		for _, v := range []float64{c.g, c.b} {
			if v > max {
				max = v
			}
			if v < min {
				min = v
			}
		}
		return max - min
	}

	// Largest 4-connected component of vivid cells = the AGO candidate.
	vivid := make([]bool, gh*gw)
	for i, c := range cells {
		l := luma(c)
		vivid[i] = sat(c) > 0.18 && l > 0.08 && l < 0.92
	}
	seen := make([]bool, gh*gw)
	var best []int
	for start := range vivid {
		if !vivid[start] || seen[start] {
			continue
		}
		comp := []int{start}
		seen[start] = true
		for q := 0; q < len(comp); q++ {
			i := comp[q]
			cy, cx := i/gw, i%gw
			for _, nb := range [][2]int{{cy - 1, cx}, {cy + 1, cx}, {cy, cx - 1}, {cy, cx + 1}} {
				ny, nx := nb[0], nb[1]
				if ny < 0 || nx < 0 || ny >= gh || nx >= gw {
					continue
				}
				j := ny*gw + nx
				if vivid[j] && !seen[j] {
					seen[j] = true
					comp = append(comp, j)
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	if len(best) < 2 {
		return nil // nothing big and vivid enough to call an AGO
	}
	minY, minX, maxY, maxX := gh, gw, -1, -1
	for _, i := range best {
		cy, cx := i/gw, i%gw
		if cy < minY {
			minY = cy
		}
		if cy > maxY {
			maxY = cy
		}
		if cx < minX {
			minX = cx
		}
		if cx > maxX {
			maxX = cx
		}
	}
	dets := []metrics.Detection{{
		Class: dataset.ClassAGO,
		B: geom.BoxF{
			X: float64(minX * heurCell),
			Y: float64(minY * heurCell),
			W: float64((maxX - minX + 1) * heurCell),
			H: float64((maxY - minY + 1) * heurCell),
		},
		Score: 1,
	}}

	// UPO candidate: the strongest luma outlier in the band just above the
	// AGO, spanning its columns plus one cell of margin.
	bandTop := minY - 4
	if bandTop < 0 {
		bandTop = 0
	}
	if bandTop < minY {
		var sum float64
		var count int
		for cy := bandTop; cy < minY; cy++ {
			for cx := max(0, minX-1); cx <= min(gw-1, maxX+1); cx++ {
				sum += luma(cells[cy*gw+cx])
				count++
			}
		}
		if count > 0 {
			mean := sum / float64(count)
			bestDev, bestIdx := 0.0, -1
			for cy := bandTop; cy < minY; cy++ {
				for cx := max(0, minX-1); cx <= min(gw-1, maxX+1); cx++ {
					dev := luma(cells[cy*gw+cx]) - mean
					if dev < 0 {
						dev = -dev
					}
					if dev > bestDev {
						bestDev, bestIdx = dev, cy*gw+cx
					}
				}
			}
			if bestIdx >= 0 && bestDev > 0.12 {
				cy, cx := bestIdx/gw, bestIdx%gw
				dets = append(dets, metrics.Detection{
					Class: dataset.ClassUPO,
					B: geom.BoxF{
						X: float64(cx * heurCell),
						Y: float64(cy * heurCell),
						W: heurCell,
						H: heurCell,
					},
					Score: 1,
				})
			}
		}
	}
	return dets
}
