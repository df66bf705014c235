// Package metrics implements the evaluation machinery of Section VI:
// IoU-thresholded detection matching (the paper uses the stringent
// IoU >= 0.9), precision/recall/F1 per option class, screen-level confusion
// matrices (Table VI), and non-maximum suppression shared by the detectors.
package metrics

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// PaperIoUThreshold is the matching threshold of Section VI-B.
const PaperIoUThreshold = 0.9

// Detection is one predicted option.
type Detection struct {
	Class dataset.Class
	B     geom.BoxF
	Score float64
}

// Counts accumulates true positives, false positives and false negatives.
type Counts struct {
	TP, FP, FN int
}

// Add accumulates another tally.
func (c *Counts) Add(o Counts) {
	c.TP += o.TP
	c.FP += o.FP
	c.FN += o.FN
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c Counts) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (c Counts) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns 2TP/(2TP+FP+FN), the paper's F-score, 0 when undefined.
func (c Counts) F1() float64 {
	den := 2*c.TP + c.FP + c.FN
	if den == 0 {
		return 0
	}
	return float64(2*c.TP) / float64(den)
}

// Match greedily matches predictions to ground truth of the same class at
// the given IoU threshold, highest-scoring predictions first (the standard
// COCO-style protocol). Each truth box matches at most one prediction.
func Match(preds []Detection, truth []dataset.Box, iouThresh float64) map[dataset.Class]Counts {
	out := map[dataset.Class]Counts{}
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return preds[order[a]].Score > preds[order[b]].Score })
	used := make([]bool, len(truth))
	for _, pi := range order {
		p := preds[pi]
		bestIoU := 0.0
		bestIdx := -1
		for ti, t := range truth {
			if used[ti] || t.Class != p.Class {
				continue
			}
			if iou := p.B.IoU(t.B); iou > bestIoU {
				bestIoU, bestIdx = iou, ti
			}
		}
		c := out[p.Class]
		if bestIdx >= 0 && bestIoU >= iouThresh {
			used[bestIdx] = true
			c.TP++
		} else {
			c.FP++
		}
		out[p.Class] = c
	}
	for ti, t := range truth {
		if !used[ti] {
			c := out[t.Class]
			c.FN++
			out[t.Class] = c
		}
	}
	return out
}

// Evaluation accumulates matching results over a whole test set.
type Evaluation struct {
	PerClass map[dataset.Class]Counts
}

// NewEvaluation returns an empty accumulator.
func NewEvaluation() *Evaluation {
	return &Evaluation{PerClass: map[dataset.Class]Counts{}}
}

// AddSample matches one sample's predictions at the threshold and
// accumulates.
func (e *Evaluation) AddSample(preds []Detection, truth []dataset.Box, iouThresh float64) {
	for cls, c := range Match(preds, truth, iouThresh) {
		acc := e.PerClass[cls]
		acc.Add(c)
		e.PerClass[cls] = acc
	}
}

// Class returns the tally for one class.
func (e *Evaluation) Class(c dataset.Class) Counts { return e.PerClass[c] }

// All returns the tally pooled over all classes — the paper's "All" rows.
func (e *Evaluation) All() Counts {
	var total Counts
	for _, c := range e.PerClass {
		total.Add(c)
	}
	return total
}

// Confusion is the screen-level confusion matrix of Table VI: labelled
// AUI/non-AUI versus detected AUI/non-AUI.
type Confusion struct {
	// AUIDetected / AUIMissed split the labelled-AUI screens.
	AUIDetected, AUIMissed int
	// NonAUIFlagged / NonAUIPassed split the labelled-non-AUI screens.
	NonAUIFlagged, NonAUIPassed int
}

// Add records one screen.
func (c *Confusion) Add(labelledAUI, detectedAUI bool) {
	switch {
	case labelledAUI && detectedAUI:
		c.AUIDetected++
	case labelledAUI && !detectedAUI:
		c.AUIMissed++
	case !labelledAUI && detectedAUI:
		c.NonAUIFlagged++
	default:
		c.NonAUIPassed++
	}
}

// Merge adds another matrix's screens to c.
func (c *Confusion) Merge(o Confusion) {
	c.AUIDetected += o.AUIDetected
	c.AUIMissed += o.AUIMissed
	c.NonAUIFlagged += o.NonAUIFlagged
	c.NonAUIPassed += o.NonAUIPassed
}

// Precision is AUIDetected / (AUIDetected + NonAUIFlagged).
func (c Confusion) Precision() float64 {
	den := c.AUIDetected + c.NonAUIFlagged
	if den == 0 {
		return 0
	}
	return float64(c.AUIDetected) / float64(den)
}

// Recall is AUIDetected / (AUIDetected + AUIMissed).
func (c Confusion) Recall() float64 {
	den := c.AUIDetected + c.AUIMissed
	if den == 0 {
		return 0
	}
	return float64(c.AUIDetected) / float64(den)
}

// NMS performs class-aware non-maximum suppression: detections are processed
// in descending score order and any detection overlapping an already-kept
// detection of the same class above iouThresh is dropped.
func NMS(dets []Detection, iouThresh float64) []Detection {
	sorted := make([]Detection, len(dets))
	copy(sorted, dets)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Score > sorted[b].Score })
	var kept []Detection
	for _, d := range sorted {
		drop := false
		for _, k := range kept {
			if k.Class == d.Class && k.B.IoU(d.B) > iouThresh {
				drop = true
				break
			}
		}
		if !drop {
			kept = append(kept, d)
		}
	}
	return kept
}
