package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// fakeDetector returns a fixed set of detections (in model-input
// coordinates), standing in for the trained model in pipeline tests.
type fakeDetector struct {
	dets  []metrics.Detection
	calls int
}

func (f *fakeDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		f.calls++
		out[i] = append([]metrics.Detection{}, f.dets...)
	}
	return out, nil
}

func (f *fakeDetector) Name() string { return "fake" }

var _ detect.Detector = (*fakeDetector)(nil)
var _ yolite.Predictor = (*fakeDetector)(nil)

func newEnv(seed int64) (*sim.Clock, *a11y.Manager, *uikit.Screen) {
	clock := sim.NewClock(seed)
	screen := uikit.NewScreen(384, 640)
	mgr := a11y.NewManager(clock, screen)
	return clock, mgr, screen
}

func upoDet(x, y, w, h float64) metrics.Detection {
	return metrics.Detection{Class: dataset.ClassUPO, B: geom.BoxF{X: x, Y: y, W: w, H: h}, Score: 0.9}
}

func TestDebounceSingleAnalysisAfterStorm(t *testing.T) {
	clock, mgr, _ := newEnv(1)
	det := &fakeDetector{}
	s := Start(clock, mgr, det, Config{Cutoff: 200 * time.Millisecond})
	// 10 events 50ms apart: each resets the ct timer.
	for i := 0; i < 10; i++ {
		clock.RunFor(50 * time.Millisecond)
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
	}
	clock.RunFor(time.Second)
	if got := s.Stats().Analyses; got != 1 {
		t.Fatalf("analyses = %d, want 1 (storm debounced to a single screenshot)", got)
	}
	if s.Stats().Debounced != 9 {
		t.Fatalf("debounced = %d, want 9", s.Stats().Debounced)
	}
	if det.calls != 1 {
		t.Fatalf("detector called %d times", det.calls)
	}
}

func TestSeparatedEventsEachAnalysed(t *testing.T) {
	clock, mgr, _ := newEnv(2)
	s := Start(clock, mgr, &fakeDetector{}, Config{Cutoff: 200 * time.Millisecond})
	for i := 0; i < 3; i++ {
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
		clock.RunFor(time.Second) // quiet period > ct
	}
	if got := s.Stats().Analyses; got != 3 {
		t.Fatalf("analyses = %d, want 3", got)
	}
}

func TestShorterCutoffAnalysesMore(t *testing.T) {
	run := func(ct time.Duration) int {
		clock, mgr, _ := newEnv(3)
		s := Start(clock, mgr, &fakeDetector{}, Config{Cutoff: ct})
		// Events with 120ms gaps.
		for i := 0; i < 20; i++ {
			mgr.Emit(a11y.TypeWindowContentChanged, "app")
			clock.RunFor(120 * time.Millisecond)
		}
		clock.RunFor(time.Second)
		return s.Stats().Analyses
	}
	fast, slow := run(50*time.Millisecond), run(200*time.Millisecond)
	if fast <= slow {
		t.Fatalf("ct=50ms analysed %d, ct=200ms analysed %d; smaller ct must analyse more", fast, slow)
	}
	if slow != 1 {
		t.Fatalf("ct=200ms should coalesce 120ms-spaced events into 1 analysis, got %d", slow)
	}
}

// TestPreprocessRinsesScreenshot: the preprocess step hands on the model
// tensor and leaves every byte of the screenshot zeroed (Section IV-E).
func TestPreprocessRinsesScreenshot(t *testing.T) {
	clock, mgr, _ := newEnv(4)
	s := Start(clock, mgr, &fakeDetector{}, Config{})
	shot := render.NewCanvas(384, 640)
	shot.Fill(geom.Rect{X: 40, Y: 60, W: 200, H: 100}, render.Color{R: 200, G: 30, B: 90, A: 255})
	x := s.preprocess(shot)
	nonZero := false
	for _, v := range x.Data {
		if v != 0 {
			nonZero = true
			break
		}
	}
	if !nonZero {
		t.Fatal("preprocess returned an all-zero tensor for a painted screenshot")
	}
	for i, b := range shot.Pix {
		if b != 0 {
			t.Fatalf("screenshot byte %d = %d after preprocess, want every byte rinsed to 0", i, b)
		}
	}
	if got := s.Timings().Stage(StagePreprocess).Count; got != 1 {
		t.Fatalf("preprocess timed %d runs, want 1", got)
	}
}

func TestDecorationPlacedAtDetection(t *testing.T) {
	clock, mgr, screen := newEnv(5)
	// Full-screen app window (offset 0) for exact placement maths.
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, det, Config{})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	decos := s.Decorations()
	if len(decos) != 1 {
		t.Fatalf("%d decorations, want 1", len(decos))
	}
	// Input (20,2,4,4) at 4x scale -> screen (80,8,16,16), inset -3 -> (77,5,22,22).
	want := geom.Rect{X: 77, Y: 5, W: 22, H: 22}
	if decos[0].Frame != want {
		t.Fatalf("decoration frame %v, want %v", decos[0].Frame, want)
	}
	if s.Stats().DecorationsDrawn != 1 || s.Stats().AUIFlagged != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestCalibrationCompensatesWindowOffset(t *testing.T) {
	clock, mgr, screen := newEnv(6)
	frame := screen.ContentFrame() // offset (0, statusBar)
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: frame,
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: frame.W, H: frame.H}}})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 40, 4, 4)}}
	s := Start(clock, mgr, det, Config{})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	// Screen coords of the detection: (80,160,16,16); decoration inset -3.
	want := geom.Rect{X: 77, Y: 157, W: 22, H: 22}
	if got := s.Decorations()[0].Frame; got != want {
		t.Fatalf("calibrated decoration at %v, want %v", got, want)
	}
}

func TestNoCalibrationReproducesFigure4Offset(t *testing.T) {
	clock, mgr, screen := newEnv(7)
	frame := screen.ContentFrame()
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: frame,
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: frame.W, H: frame.H}}})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 40, 4, 4)}}
	s := Start(clock, mgr, det, Config{DisableCalibration: true})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	got := s.Decorations()[0].Frame
	// Without calibration the decoration lands below the true position by
	// the status-bar height (Figure 4a).
	correct := geom.Rect{X: 77, Y: 157, W: 22, H: 22}
	if got.Y != correct.Y+screen.StatusBarH {
		t.Fatalf("uncalibrated decoration at %v; want it %dpx below %v", got, screen.StatusBarH, correct)
	}
}

func TestDecorationsClearedBeforeNextAnalysis(t *testing.T) {
	clock, mgr, screen := newEnv(8)
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, det, Config{})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if s.Stats().Analyses != 2 {
		t.Fatalf("analyses = %d", s.Stats().Analyses)
	}
	if len(s.Decorations()) != 1 {
		t.Fatalf("%d decorations on screen after 2 cycles, want 1 (old ones cleared)", len(s.Decorations()))
	}
}

func TestAutoBypassClicksUPO(t *testing.T) {
	clock, mgr, screen := newEnv(9)
	clicked := false
	root := &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}
	// Clickable close button at screen (80,8)-(96,24): input coords (20,2,4,4).
	root.Add(&uikit.View{ID: "btn_close", Kind: uikit.KindIcon,
		Bounds: geom.Rect{X: 80, Y: 8, W: 16, H: 16}, Clickable: true,
		OnClick: func() { clicked = true }})
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(), Root: root})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, det, Config{AutoBypass: true})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if !clicked {
		t.Fatal("auto-bypass did not click the UPO")
	}
	if s.Stats().Bypasses != 1 {
		t.Fatalf("bypasses = %d", s.Stats().Bypasses)
	}
}

func TestMonitorModeTakesNoScreenshots(t *testing.T) {
	clock, mgr, _ := newEnv(10)
	s := Start(clock, mgr, nil, Config{Mode: ModeMonitor})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if mgr.Stats().Screenshots != 0 {
		t.Fatal("monitor-only mode took a screenshot")
	}
	if s.Stats().Analyses != 0 {
		t.Fatal("monitor-only mode analysed")
	}
}

func TestDetectModeDoesNotDecorate(t *testing.T) {
	clock, mgr, screen := newEnv(11)
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}})
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, det, Config{Mode: ModeDetect})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if s.Stats().Analyses != 1 || s.Stats().AUIFlagged != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
	if len(s.Decorations()) != 0 {
		t.Fatal("detect-only mode decorated")
	}
}

// TestAGOAloneIsNotAVerdict: the act stage flags and bypasses through
// FlagsAUI, so an analysis holding only an AGO decorates it but flags nothing
// and clicks nothing.
func TestAGOAloneIsNotAVerdict(t *testing.T) {
	clock, mgr, screen := newEnv(12)
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}})
	ago := upoDet(20, 2, 4, 4)
	ago.Class = dataset.ClassAGO
	s := Start(clock, mgr, &fakeDetector{dets: []metrics.Detection{ago}}, Config{AutoBypass: true})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if st := s.Stats(); st.Analyses != 1 || st.DecorationsDrawn != 1 || st.AUIFlagged != 0 || st.Bypasses != 0 {
		t.Fatalf("stats %+v, want one analysis drawing one border, no flag, no click", st)
	}
	if !FlagsAUI([]metrics.Detection{ago, upoDet(0, 0, 1, 1)}) || FlagsAUI(nil) {
		t.Fatal("FlagsAUI is not the any-UPO rule")
	}
}

func TestStopCancelsPendingWork(t *testing.T) {
	clock, mgr, _ := newEnv(12)
	s := Start(clock, mgr, &fakeDetector{}, Config{})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	s.Stop()
	clock.RunFor(time.Second)
	if s.Stats().Analyses != 0 {
		t.Fatal("analysis ran after Stop")
	}
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	if s.Stats().EventsSeen != 1 {
		t.Fatal("stopped service kept counting events")
	}
}

func TestAnalysisCallback(t *testing.T) {
	clock, mgr, _ := newEnv(13)
	det := &fakeDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	var observed []Analysis
	s := Start(clock, mgr, det, Config{})
	s.OnAnalysis = func(a Analysis) { observed = append(observed, a) }
	mgr.Emit(a11y.TypeWindowsChanged, "com.shop")
	clock.RunFor(time.Second)
	if len(observed) != 1 {
		t.Fatalf("observed %d analyses, want 1", len(observed))
	}
	if observed[0].Package != "com.shop" {
		t.Fatalf("observed package %q", observed[0].Package)
	}
	// Detections are reported in screen coordinates (4x input).
	if observed[0].Detections[0].B.X != 80 {
		t.Fatalf("observed detection %v, want screen coords", observed[0].Detections[0].B)
	}
}

func TestStartWithoutDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Start(nil detector, full mode) did not panic")
		}
	}()
	clock, mgr, _ := newEnv(14)
	Start(clock, mgr, nil, Config{})
}
