package frauddroid

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/uikit"
)

// ViewAdapter plugs the metadata heuristic into the pixel-detector seam
// (detect.Detector), mirroring how the paper's Table VI runs the
// FraudDroid-like baseline through the same end-to-end harness as DARPA.
// The adapter ignores the screenshot tensor — the baseline's whole point is
// that it reads the view hierarchy instead of pixels — and only uses the
// tensor's shape to report detections in model-input coordinates, as the
// Detector contract requires.
type ViewAdapter struct {
	// Detector is the heuristic configuration; the zero value uses the
	// default feature lists.
	Detector Detector
	// Screen supplies the live screen whose view hierarchy is inspected.
	Screen func() *uikit.Screen
}

// Name identifies the backend in registries and result tables.
func (a *ViewAdapter) Name() string { return "frauddroid" }

// PredictBatchCtx runs the id/placement heuristics on the current view dump.
// Flagged UPO rectangles become detections with confidence 1 (the heuristic
// is binary); when x carries a model-input shape the boxes are scaled from
// screen to input coordinates, otherwise they are returned as-is.
//
// Batch contract: the adapter observes exactly one live screen, which by
// convention occupies batch slot 0 — the slot the service pipeline uses. Any
// other slot belongs to a dataset item whose pixels the adapter cannot relate
// to the view hierarchy, so it reports no detections there. (It used to
// return the live screen's boxes for every index, which poisoned every item
// of a batched evaluation with the same detections.) The heuristic is too
// cheap to checkpoint; only an already-dead context is honoured.
func (a *ViewAdapter) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if x == nil || len(x.Shape) == 0 || x.Shape[0] <= 0 {
		return nil, nil
	}
	out := make([][]metrics.Detection, x.Shape[0])
	out[0] = a.detectLive(x)
	return out, nil
}

// detectLive runs the heuristics on the current screen and scales the
// flagged rectangles into x's model-input coordinate system.
func (a *ViewAdapter) detectLive(x *tensor.Tensor) []metrics.Detection {
	if a.Screen == nil {
		return nil
	}
	s := a.Screen()
	if s == nil {
		return nil
	}
	res := a.Detector.DetectScreen(s)
	if !res.IsAUI {
		return nil
	}
	sx, sy := 1.0, 1.0
	if x != nil && len(x.Shape) == 4 && s.W > 0 && s.H > 0 {
		sx = float64(x.Shape[3]) / float64(s.W)
		sy = float64(x.Shape[2]) / float64(s.H)
	}
	dets := make([]metrics.Detection, 0, len(res.UPOs))
	for _, r := range res.UPOs {
		dets = append(dets, metrics.Detection{
			Class: dataset.ClassUPO,
			B:     geom.BoxFromRect(r).Scale(sx, sy),
			Score: 1,
		})
	}
	return dets
}
