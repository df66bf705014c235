package core

import (
	"context"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/yolite"
)

// DefaultAuditBatch is the chunk size AuditScreensCtx uses when given a
// non-positive batch size.
const DefaultAuditBatch = 8

// AuditScreensCtx batch-analyses captured screenshots offline — the
// app-store / regulator workload of the paper's Section VII discussion.
// Where the live service (Service.analyze) handles one debounce-stable screen
// at a time, an audit holds a whole catalogue of screens up front: they are
// stacked into [batchSize, 3, H, W] chunks and run through the detector seam,
// one call — for the conv backends one backbone forward — per chunk, whose
// items are built and decoded on the worker pool. Detections come back per
// screen in new slices, scaled to that canvas's own coordinate system by
// detect.ToScreen, as detect.PredictCanvasCtx scales one screen. A cancelled
// audit stops within roughly one conv layer and returns ctx.Err() along with
// the screens fully audited so far — partial results are exactly what a
// deadline-bounded audit wants to keep.
func AuditScreensCtx(ctx context.Context, p detect.Detector, shots []*render.Canvas, confThresh float64, batchSize int) ([][]metrics.Detection, error) {
	if batchSize <= 0 {
		batchSize = DefaultAuditBatch
	}
	out := make([][]metrics.Detection, 0, len(shots))
	for start := 0; start < len(shots); start += batchSize {
		chunk := shots[start:min(start+batchSize, len(shots))]
		x := yolite.CanvasesToTensor(chunk)
		res, err := detect.Guarded(ctx, p, x, confThresh)
		if err != nil {
			return out, err
		}
		for i, dets := range res {
			out = append(out, detect.ToScreen(dets, chunk[i].W, chunk[i].H))
		}
	}
	return out, nil
}
