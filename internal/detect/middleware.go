package detect

import (
	"context"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Middleware decorators wrap a Detector with cross-cutting behaviour while
// preserving its name, so a decorated backend still reports as itself in
// tables and logs. Decorators compose by nesting:
//
//	d = detect.WithTiming(detect.WithResultCache(detect.WithNMS(base, 0.2), 64), timings)

// floorDetector drops detections below a confidence floor, whatever
// threshold the caller asked for — the deployment knob the device
// experiments turn (Section VI-C raises the operating threshold to keep
// screen-level precision up).
type floorDetector struct {
	inner Detector
	floor float64
}

// WithConfidenceFloor enforces a minimum confidence: the effective threshold
// of every call is max(confThresh, floor).
func WithConfidenceFloor(d Detector, floor float64) Detector {
	return floorDetector{inner: d, floor: floor}
}

func (f floorDetector) Name() string { return f.inner.Name() }

// PredictBatchCtx applies the floor once and forwards context and batch.
func (f floorDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.inner.PredictBatchCtx(ctx, x, math.Max(confThresh, f.floor))
}

// nmsDetector applies class-aware non-maximum suppression to the inner
// detector's output, for backends that do not already suppress duplicates.
type nmsDetector struct {
	inner Detector
	iou   float64
}

// WithNMS suppresses same-class detections overlapping above iou.
func WithNMS(d Detector, iou float64) Detector {
	return nmsDetector{inner: d, iou: iou}
}

func (m nmsDetector) Name() string { return m.inner.Name() }

// PredictBatchCtx suppresses duplicates within each item independently —
// detections never compete across screens. A failed inner call propagates
// its error with nothing to suppress.
func (m nmsDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out, err := m.inner.PredictBatchCtx(ctx, x, confThresh)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = metrics.NMS(out[i], m.iou)
	}
	return out, nil
}

// Timed reports every inference's wall-clock latency into a
// perfmodel.Timings accumulator under the given stage label.
type Timed struct {
	inner Detector
	stage string
	rec   *perfmodel.Timings
}

// WithTiming wraps d so each call is timed into rec under stage (empty means
// "infer"). A nil rec disables recording without disabling the wrapper, so
// callers can thread an optional recorder through unconditionally.
func WithTiming(d Detector, rec *perfmodel.Timings, stage string) *Timed {
	if stage == "" {
		stage = "infer"
	}
	return &Timed{inner: d, stage: stage, rec: rec}
}

// Name reports the inner backend's name.
func (t *Timed) Name() string { return t.inner.Name() }

// PredictBatchCtx delegates, recording a completed call's wall-clock latency
// together with its item count — so the stage's Count tracks screens
// processed and Mean() stays an amortised per-item figure — and a failed or
// aborted one under "<stage>-aborted", so cancelled partials never skew the
// inference latency distribution.
func (t *Timed) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := t.inner.PredictBatchCtx(ctx, x, confThresh)
	if err != nil {
		t.rec.Observe(t.stage+"-aborted", time.Since(start))
		return nil, err
	}
	t.rec.ObserveBatch(t.stage, time.Since(start), len(out))
	return out, nil
}
