package core

import (
	"context"
	"time"

	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Stage identifies one step of the analysis pipeline (Fig. 5 steps 3-5,
// split the way the overhead decomposition of Table VII reasons about them).
type Stage int

// The pipeline stages, in execution order.
const (
	// StageCapture takes the screenshot.
	StageCapture Stage = iota
	// StagePreprocess converts pixels to the model tensor and rinses the
	// screenshot buffer.
	StagePreprocess
	// StageInfer runs the detector backend.
	StageInfer
	// StagePostprocess scales detections to screen coordinates and gathers
	// the calibration offsets.
	StagePostprocess
	// StageAct decorates, notifies observers, and auto-bypasses.
	StageAct
	// NumStages is the number of pipeline stages.
	NumStages
)

var stageNames = [NumStages]string{"capture", "preprocess", "infer", "postprocess", "act"}

// String returns the stage's short name, also used as the key in the
// service's latency recorder.
func (st Stage) String() string {
	if st < 0 || st >= NumStages {
		return "unknown"
	}
	return stageNames[st]
}

// StageStats counts per-stage activity. The stage's wall-clock time — real
// compute, since the simulation clock is virtual — is the same-named stage
// of the service's Timings.
type StageStats struct {
	// Runs counts how many analyses executed this stage.
	Runs int
}

// CaptureResult is the output of the capture stage.
type CaptureResult struct {
	// Shot is the rendered screenshot; it is rinsed (zeroed) by the
	// preprocess stage, so consumers must not hold on to it.
	Shot *render.Canvas
}

// PreprocessResult is the output of the preprocess stage.
type PreprocessResult struct {
	// X is the model-input tensor.
	X *tensor.Tensor
	// ScaleX/ScaleY map model-input coordinates back to screen coordinates.
	ScaleX, ScaleY float64
}

// InferResult is the output of the inference stage.
type InferResult struct {
	// Detections are in model-input coordinates.
	Detections []metrics.Detection
}

// PostprocessResult is the output of the postprocess stage.
type PostprocessResult struct {
	// Detections are in screen coordinates.
	Detections []metrics.Detection
	// Offset is the anchor-view calibration offset (Section IV-D); only
	// measured when there is something to decorate.
	Offset geom.Pt
	// WinOrigin is the top window's screen origin, the base for overlay
	// frames.
	WinOrigin geom.Pt
}

// ActResult is the output of the act stage.
type ActResult struct {
	// DecorationsAdded counts overlay windows drawn this cycle.
	DecorationsAdded int
	// BypassClicks counts auto-bypass click gestures dispatched.
	BypassClicks int
}

// stageStart begins timing a stage; the returned func finishes it. Usage:
// defer s.stageStart(StageInfer)().
func (s *Service) stageStart(st Stage) func() {
	begin := time.Now()
	return func() {
		d := time.Since(begin)
		s.mu.Lock()
		s.stats.Stages[st].Runs++
		s.mu.Unlock()
		s.timings.Observe(st.String(), d)
	}
}

// capture takes the screenshot (Fig. 5 step 3).
func (s *Service) capture() CaptureResult {
	defer s.stageStart(StageCapture)()
	return CaptureResult{Shot: s.mgr.TakeScreenshot()}
}

// preprocess converts the screenshot to the model tensor and rinses the
// pixel buffer. The paper rinses after inference (Section IV-E); zeroing as
// soon as the tensor copy exists is strictly earlier, so the sensitive
// full-resolution pixels never outlive this stage.
func (s *Service) preprocess(c CaptureResult) PreprocessResult {
	defer s.stageStart(StagePreprocess)()
	x := yolite.CanvasToTensor(c.Shot)
	c.Shot.Zero()
	s.mu.Lock()
	s.stats.Rinses++
	s.mu.Unlock()
	screen := s.mgr.Screen()
	return PreprocessResult{
		X:      x,
		ScaleX: float64(screen.W) / float64(yolite.InputW),
		ScaleY: float64(screen.H) / float64(yolite.InputH),
	}
}

// infer runs the detector backend on the prepared tensor under the cycle's
// context: a supersession or deadline expiry aborts the forward within
// roughly one conv layer and surfaces as ctx.Err(). The stage is also the
// service's panic and validation boundary (detect.Guarded) — a detector that
// panics on one bad screen, or answers it with a NaN or negative-size box,
// surfaces as an inference error (degrading that cycle) instead of unwinding
// the clock goroutine or drawing an overlay nowhere.
func (s *Service) infer(ctx context.Context, p PreprocessResult) (InferResult, error) {
	defer s.stageStart(StageInfer)()
	dets, err := detect.Only(detect.Guarded(ctx, s.detector, p.X, s.cfg.confThresh()))
	if err != nil {
		return InferResult{}, err
	}
	return InferResult{Detections: dets}, nil
}

// postprocess scales detections from model-input to screen coordinates and,
// when something was found, measures the decoration-calibration offsets.
func (s *Service) postprocess(p PreprocessResult, in InferResult) PostprocessResult {
	defer s.stageStart(StagePostprocess)()
	dets := in.Detections
	for i := range dets {
		dets[i].B = dets[i].B.Scale(p.ScaleX, p.ScaleY)
	}
	res := PostprocessResult{Detections: dets}
	if len(dets) > 0 {
		res.Offset = s.mgr.WindowOffset()
		if top := s.mgr.Screen().TopWindow(); top != nil {
			res.WinOrigin = geom.Pt{X: top.Frame.X, Y: top.Frame.Y}
		}
	}
	return res
}

// act applies the analysis: decoration (ModeFull), the observer callback,
// and auto-bypass. It always runs, even with zero detections, because
// observers build their confusion matrices from every cycle. Ordering is
// load-bearing: observers run after decoration (so they can inspect the
// overlays) but before auto-bypass (which mutates the very UI being
// observed).
func (s *Service) act(rec Analysis, p PostprocessResult) ActResult {
	defer s.stageStart(StageAct)()
	var res ActResult
	if len(p.Detections) > 0 {
		s.mu.Lock()
		s.stats.AUIFlagged++
		s.mu.Unlock()
		if s.cfg.mode() == ModeFull {
			res.DecorationsAdded = s.decorate(p)
		}
	}
	if s.OnAnalysis != nil {
		s.OnAnalysis(rec)
	}
	if len(p.Detections) > 0 && s.cfg.AutoBypass {
		res.BypassClicks = s.bypass(p.Detections)
	}
	return res
}
