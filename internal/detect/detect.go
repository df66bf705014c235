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
// downstream (scaling, calibration, decoration) is the pipeline's business,
// which is what lets Table V swap detectors without touching the service.
package detect

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
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
// screen, whose pixels c holds at any resolution (httpd decodes them straight
// to the model's size). It is the one-call path a network front end needs:
// pixels in, screen-coordinate detections out, admission errors surfaced.
func PredictCanvasCtx(ctx context.Context, p Detector, c *render.Canvas, sw, sh int, confThresh float64) ([]metrics.Detection, error) {
	dets, err := Only(p.PredictBatchCtx(ctx, yolite.CanvasToTensor(c), confThresh))
	if err != nil {
		return nil, err
	}
	sx := float64(sw) / float64(yolite.InputW)
	sy := float64(sh) / float64(yolite.InputH)
	for i := range dets {
		dets[i].B = dets[i].B.Scale(sx, sy)
	}
	return dets, nil
}

// DefaultEvalBatch is the batch size EvaluateBatch uses when given a
// non-positive one.
const DefaultEvalBatch = 8

// EvaluateBatch is the batched counterpart of yolite.Evaluate: it stacks
// samples into [batchSize, 3, H, W] tensors and runs each chunk through the
// seam, so dataset-scale evaluations pay one backbone forward per chunk
// instead of one per image. Detections are identical to the per-item loop;
// only the amortisation changes. A failed chunk scores as no detections.
func EvaluateBatch(p Detector, samples []*dataset.Sample, iouThresh float64, batchSize int) *metrics.Evaluation {
	if batchSize <= 0 {
		batchSize = DefaultEvalBatch
	}
	eval := metrics.NewEvaluation()
	for start := 0; start < len(samples); start += batchSize {
		chunk := samples[start:min(start+batchSize, len(samples))]
		out, err := p.PredictBatchCtx(context.Background(), yolite.BatchToTensor(chunk), yolite.DefaultConfThresh)
		if err != nil || len(out) != len(chunk) {
			out = make([][]metrics.Detection, len(chunk))
		}
		for i, dets := range out {
			eval.AddSample(dets, chunk[i].Boxes, iouThresh)
		}
	}
	return eval
}
