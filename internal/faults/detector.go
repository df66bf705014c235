package faults

import (
	"context"
	"math"
	"time"

	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Detector injects a plan's faults at the detector seam. It is a
// detect.Detector, so it drops in anywhere a backend fits — typically
// innermost, under the resilience middleware it exists to exercise:
//
//	chaos := faults.Wrap(model, plan)
//	d := detect.WithFallback(detect.WithRetry(chaos, 3), heuristic)
//
// One Decide is consumed per inference call (a batch counts as one call,
// mirroring how one forward serves the whole batch).
type Detector struct {
	inner detect.Detector
	plan  *Plan
}

var _ detect.Detector = (*Detector)(nil)

// Wrap injects plan's faults around d.
func Wrap(d detect.Detector, plan *Plan) *Detector {
	return &Detector{inner: d, plan: plan}
}

// Name reports the inner backend's name: an injected backend still shows up
// as itself in tables and logs.
func (f *Detector) Name() string { return f.inner.Name() }

// sleep waits out an injected latency spike, honouring the context the way a
// genuinely slow backend would.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CorruptDetections returns a damaged copy of dets: the first detection's
// box and score become NaN, and a detection with a negative-size,
// astronomically placed box is appended. The copy is required: an inner
// answer is read-only and may be shared (detect.Detector), so damage written
// into it would reach every other holder of that slice. The damage is
// deterministic, and detect.ValidDetections rejects it — which is exactly
// what lets retry and fallback treat a corrupt result as a failure.
func CorruptDetections(dets []metrics.Detection) []metrics.Detection {
	out := append([]metrics.Detection(nil), dets...)
	nan := math.NaN()
	if len(out) > 0 {
		out[0].B.X = nan
		out[0].Score = nan
	}
	out = append(out, metrics.Detection{
		B:     geom.BoxF{X: 1e18, Y: nan, W: -4, H: math.Inf(1)},
		Score: 2,
	})
	return out
}

// PredictBatchCtx decides one injection per call — a batch is one call, as
// one forward serves it — and applies it: Error returns the fault's
// error, Panic panics, Latency delays then delegates, Corrupt delegates then
// damages item 0 (the partial-batch damage the serving layer's poison
// isolation must contain). No fault means a transparent delegate.
func (f *Detector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // a caller that already left consumes no decision
	}
	fault, ok := f.plan.Decide()
	if ok {
		switch fault.Kind {
		case Error:
			return nil, fault.Err
		case Panic:
			panic("faults: injected panic")
		case Latency:
			if err := sleep(ctx, fault.Latency); err != nil {
				return nil, err
			}
		}
	}
	out, err := f.inner.PredictBatchCtx(ctx, x, conf)
	if ok && fault.Kind == Corrupt && err == nil && len(out) > 0 {
		out[0] = CorruptDetections(out[0])
	}
	return out, err
}
