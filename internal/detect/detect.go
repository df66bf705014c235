// Package detect owns the detector seam of the reproduction: the interface
// every AUI-detection backend implements (the yolite one-stage model, its
// int8 port, the RCNN baselines, and the FraudDroid-like metadata
// heuristic), a named registry so binaries and examples select backends by
// string, and composable middleware decorators (result caching keyed on
// screenshot content, per-stage timing).
//
// The contract mirrors the paper's Fig. 5 hand-off: the pipeline gives the
// detector a normalised screenshot tensor and gets back detections in
// model-input coordinates; everything upstream (debounce, capture) and
// downstream (scaling with ToScreen, calibration, decoration) is the
// pipeline's business, which is what lets Table V swap detectors without
// touching the service.
package detect

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Detector is the detector seam: an identity, so registries, tables and logs
// can refer to backends uniformly, and one inference method.
//
// PredictBatchCtx takes one [N, 3, H, W] tensor of prepared screens and
// returns one detection slice per item, in item order, in model-input
// coordinates; a single screen is a batch of one. Every backend and every
// wrapper implements it under the same contract:
//
//   - a context that is already dead returns ctx.Err() before any inner work;
//   - a cancel or deadline during the call returns an error and a nil result
//     promptly (the conv backends abort within roughly one layer) and leaves
//     any activation pool whole;
//   - a context that can be cancelled but never is computes exactly what
//     context.Background() computes — cancellation support costs checkpoints,
//     never different arithmetic;
//   - on success len(result) == N, and item i's detections do not depend on
//     the other items in the batch (frauddroid is the one exception: only
//     slot 0 carries the live screen).
//
// Ownership: once PredictBatchCtx has returned a nil error, nothing reads
// x, and the caller may reuse it. The outer slice belongs to the caller, who
// may replace its items. Each item's []metrics.Detection is read-only to
// every caller and may be shared — a result table hands the same slice to
// every hit, and a stub may answer every call with one slice. A caller that
// needs other boxes builds a new slice (ToScreen, faults.CorruptDetections).
type Detector interface {
	Name() string
	PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error)
}

// ErrMisaligned marks an answer that breaks the seam's result-per-item
// postcondition. Mapping such an answer back onto the batch would index-panic
// on a short slice or, worse, hand one screen another screen's boxes.
var ErrMisaligned = errors.New("detect: backend answer misaligned with batch")

func misaligned(got, want int, what string) error {
	return fmt.Errorf("%w: %d results for %d %s", ErrMisaligned, got, want, what)
}

// batchLen is the item count of a batch tensor; a nil or shapeless tensor
// holds none.
func batchLen(x *tensor.Tensor) int {
	if x == nil || len(x.Shape) == 0 {
		return 0
	}
	return x.Shape[0]
}

// Only unwraps the answer to a batch of one — the single-screen callers'
// idiom is Only(d.PredictBatchCtx(ctx, x, conf)): the screen's detections, or
// an error when the call failed or the backend answered with anything but
// exactly one result.
func Only(out [][]metrics.Detection, err error) ([]metrics.Detection, error) {
	if err != nil {
		return nil, err
	}
	if len(out) != 1 {
		return nil, misaligned(len(out), 1, "item")
	}
	return out[0], nil
}

// Predict is a shim kept for cmd/darpa-bench, which prices the seam through
// this name: run the batch, return item n. An n outside the batch, or an
// answer that does not cover the batch, is an error. Nothing else calls it.
func Predict(ctx context.Context, p Detector, x *tensor.Tensor, n int, confThresh float64) ([]metrics.Detection, error) {
	out, err := p.PredictBatchCtx(ctx, x, confThresh)
	if err != nil {
		return nil, err
	}
	want := batchLen(x)
	if len(out) != want {
		return nil, misaligned(len(out), want, "items")
	}
	if n < 0 || n >= want {
		return nil, fmt.Errorf("detect: item %d is outside a batch of %d", n, want)
	}
	return out[n], nil
}

// PredictBatchCtx is a shim kept for cmd/darpa-bench: the seam method as a
// free function. Nothing else calls it.
func PredictBatchCtx(ctx context.Context, p Detector, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	return p.PredictBatchCtx(ctx, x, confThresh)
}

// PredictCanvas is a shim kept for cmd/darpa-bench: PredictCanvasCtx with no
// deadline and the error dropped, on a full-size canvas. Nothing else calls it.
func PredictCanvas(p Detector, c *render.Canvas, confThresh float64) []metrics.Detection {
	dets, _ := PredictCanvasCtx(context.Background(), p, c, c.W, c.H, confThresh)
	return dets
}

// PredictCanvasCtx runs a detector on a screenshot under a per-request
// context: tenant identity and cancellation ride ctx into the backend (the
// serving layers read both), and detections come back scaled to the sw x sh
// screen (ToScreen), whose pixels c holds at any resolution (httpd decodes
// them straight to the model's size). It is the one-call path a network
// front end needs: pixels in, screen-coordinate detections out, admission
// errors surfaced. It reaches p through Guarded, so a panic or a corrupt
// answer is an error. c is the caller's again once it returns.
func PredictCanvasCtx(ctx context.Context, p Detector, c *render.Canvas, sw, sh int, confThresh float64) ([]metrics.Detection, error) {
	x := inputs.Get().(*tensor.Tensor)
	yolite.CanvasInto(x.Data, c)
	dets, err := Only(Guarded(ctx, p, x, confThresh))
	if err != nil {
		return nil, err
	}
	inputs.Put(x)
	return ToScreen(dets, sw, sh), nil
}

// inputs recycles PredictCanvasCtx's tensors, each exactly one model input,
// and each only after a nil error: after an error a forward may still read it
// (a Batcher caller left; a panic's workers).
var inputs = sync.Pool{New: func() any { return tensor.New(1, 3, yolite.InputH, yolite.InputW) }}

// ToScreen maps an answer from model-input coordinates (yolite.InputW x
// yolite.InputH) onto a w x h screen. It is the one place an answer is
// scaled, and it writes a new slice: dets is read-only (see Detector).
func ToScreen(dets []metrics.Detection, w, h int) []metrics.Detection {
	sx := float64(w) / float64(yolite.InputW)
	sy := float64(h) / float64(yolite.InputH)
	out := make([]metrics.Detection, len(dets))
	for i, d := range dets {
		d.B = d.B.Scale(sx, sy)
		out[i] = d
	}
	return out
}
