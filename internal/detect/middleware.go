package detect

import (
	"context"
	"time"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Middleware decorators wrap a Detector with cross-cutting behaviour while
// preserving its name, so a decorated backend still reports as itself in
// tables and logs. Decorators compose by nesting:
//
//	d = detect.WithTiming(detect.WithResultCache(base, 64), timings, "")

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
