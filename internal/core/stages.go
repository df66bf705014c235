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

// The steps of one analysis cycle (Fig. 5 steps 3-5, split the way the
// overhead decomposition of Table VII reasons about them), in execution
// order. Each name is the step's key in the service's Timings, which holds
// its run count and wall-clock time — real compute, since the simulation
// clock is virtual.
const (
	// StageCapture takes the screenshot.
	StageCapture = "capture"
	// StagePreprocess converts pixels to the model tensor and rinses the
	// screenshot buffer.
	StagePreprocess = "preprocess"
	// StageInfer runs the detector backend.
	StageInfer = "infer"
	// StagePostprocess scales detections to screen coordinates and gathers
	// the calibration offsets.
	StagePostprocess = "postprocess"
	// StageAct decorates, notifies observers, and auto-bypasses.
	StageAct = "act"
)

// timed begins timing a step; the returned func records it in Timings.
// Usage: defer s.timed(StageInfer)().
func (s *Service) timed(stage string) func() {
	begin := time.Now()
	return func() { s.timings.Observe(stage, time.Since(begin)) }
}

// capture takes the screenshot (Fig. 5 step 3).
func (s *Service) capture() *render.Canvas {
	defer s.timed(StageCapture)()
	return s.mgr.TakeScreenshot()
}

// preprocess converts the screenshot to the model tensor and rinses the
// pixel buffer. The paper rinses after inference (Section IV-E); zeroing as
// soon as the tensor copy exists is strictly earlier, so the sensitive
// full-resolution pixels never outlive this step.
func (s *Service) preprocess(shot *render.Canvas) *tensor.Tensor {
	defer s.timed(StagePreprocess)()
	x := yolite.CanvasToTensor(shot)
	shot.Zero()
	return x
}

// infer runs the detector backend on the prepared tensor under the cycle's
// context: a supersession or deadline expiry aborts the forward within
// roughly one conv layer and surfaces as ctx.Err(). The step is also the
// service's panic and validation boundary (detect.Guarded) — a detector that
// panics on one bad screen, or answers it with a NaN or negative-size box,
// surfaces as an inference error (degrading that cycle) instead of unwinding
// the clock goroutine or drawing an overlay nowhere. Detections come back in
// model-input coordinates.
func (s *Service) infer(ctx context.Context, x *tensor.Tensor) ([]metrics.Detection, error) {
	defer s.timed(StageInfer)()
	return detect.Only(detect.Guarded(ctx, s.detector, x, s.cfg.confThresh()))
}

// postprocess maps the detector's answer from model-input to screen
// coordinates (detect.ToScreen, a new slice: raw is read-only) and, when
// something was found, measures where overlays must go: the returned shift
// maps a screen rectangle to an overlay frame. It is the top window's origin
// less the anchor-view calibration offset (Section IV-D; the offset is left
// out under Config.DisableCalibration).
func (s *Service) postprocess(raw []metrics.Detection) (dets []metrics.Detection, shift geom.Pt) {
	defer s.timed(StagePostprocess)()
	screen := s.mgr.Screen()
	dets = detect.ToScreen(raw, screen.W, screen.H)
	if len(dets) == 0 {
		return dets, geom.Pt{}
	}
	// WindowManager.addView positions views relative to the app window; the
	// model reports screen coordinates. Calibration subtracts the
	// anchor-view offset (Figure 6 lines 8-9).
	if !s.cfg.DisableCalibration {
		shift = shift.Sub(s.mgr.WindowOffset())
	}
	if top := screen.TopWindow(); top != nil {
		shift = shift.Add(geom.Pt{X: top.Frame.X, Y: top.Frame.Y})
	}
	return dets, shift
}

// act applies the analysis: decoration (ModeFull), the observer callback,
// and auto-bypass. It always runs, even with zero detections, because
// observers build their confusion matrices from every cycle. Ordering is
// load-bearing: observers run after decoration (so they can inspect the
// overlays) but before auto-bypass (which mutates the very UI being
// observed).
func (s *Service) act(rec Analysis, shift geom.Pt) {
	defer s.timed(StageAct)()
	flagged := FlagsAUI(rec.Detections)
	if flagged {
		s.mu.Lock()
		s.stats.AUIFlagged++
		s.mu.Unlock()
	}
	if s.cfg.mode() == ModeFull {
		s.decorate(rec.Detections, shift)
	}
	if s.OnAnalysis != nil {
		s.OnAnalysis(rec)
	}
	if flagged && s.cfg.AutoBypass {
		s.bypass(rec.Detections)
	}
}
