package core

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
)

// This file holds the pure decision logic of the act stage — which overlays
// to draw, which regions an auto-bypass would click — extracted from the
// Service so the network front end (internal/httpd) ships byte-for-byte the
// same decisions to remote consumers that the in-process decorator executes
// against the window manager.

// Decoration is one planned decoration overlay: a high-contrast border
// around a detected option (Section IV-D). Frame is the inset border
// rectangle in the detection's own coordinate space; the in-process service
// additionally calibrates it with the anchor-view offset before handing it
// to the window manager, remote consumers draw it as-is.
type Decoration struct {
	Class  dataset.Class
	Frame  geom.Rect
	Color  render.Color
	Stroke int
}

// PlanDecorations converts detections into decoration decisions: each box is
// inset outward by the stroke width and coloured by class. Zero colours
// default to the paper's green-for-UPO / red-for-AGO scheme; a non-positive
// stroke defaults to 3.
func PlanDecorations(dets []metrics.Detection, upoCol, agoCol render.Color, stroke int) []Decoration {
	if stroke <= 0 {
		stroke = 3
	}
	if upoCol.A == 0 {
		upoCol = render.Green
	}
	if agoCol.A == 0 {
		agoCol = render.Red
	}
	out := make([]Decoration, 0, len(dets))
	for _, d := range dets {
		col := agoCol
		if d.Class == dataset.ClassUPO {
			col = upoCol
		}
		out = append(out, Decoration{
			Class:  d.Class,
			Frame:  d.B.Rect().Inset(-stroke),
			Color:  col,
			Stroke: stroke,
		})
	}
	return out
}

// FlagsAUI is the one screen verdict: an analysis flags its screen as an AUI
// when its detections hold a UPO, the option the dark pattern hides (Table
// VI's rule). The act stage's flag count and bypass gate, the fleet's ledger
// and bypass, Table VI and the store audit all decide through it.
func FlagsAUI(dets []metrics.Detection) bool {
	for _, d := range dets {
		if d.Class == dataset.ClassUPO {
			return true
		}
	}
	return false
}

// BypassTargets selects the UPO regions an auto-bypass clicks, highest
// confidence first, at most three (Section IV-D: a benign false positive
// absorbs one click harmlessly while the real close button still gets hit).
// The input slice is not modified.
func BypassTargets(dets []metrics.Detection) []metrics.Detection {
	var upos []metrics.Detection
	for _, d := range dets {
		if d.Class == dataset.ClassUPO {
			upos = append(upos, d)
		}
	}
	if len(upos) == 0 {
		return nil
	}
	sort.SliceStable(upos, func(i, j int) bool { return upos[i].Score > upos[j].Score })
	if len(upos) > 3 {
		upos = upos[:3]
	}
	return upos
}
