package core

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/auigen"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// The integration tests share one trained model: training even the fallback
// quick model costs ~20s on one core, so building it per test dominates the
// package's runtime. Inference does not mutate the model, making sharing
// safe.
var (
	sharedModelOnce sync.Once
	sharedModel     *yolite.Model
	sharedModelSkip string
)

// loadOrTrainModel returns a usable detector: pretrained weights when the
// repository has them, otherwise a briefly trained model. All callers get
// the same instance.
func loadOrTrainModel(t *testing.T) *yolite.Model {
	t.Helper()
	sharedModelOnce.Do(func() {
		m := yolite.NewModel(7)
		for _, dir := range []string{"weights", filepath.Join("..", "..", "weights")} {
			if err := m.Load(filepath.Join(dir, "yolite.gob")); err == nil {
				sharedModel = m
				return
			}
		}
		if os.Getenv("CI") != "" {
			sharedModelSkip = "no pretrained weights and CI forbids long training"
			return
		}
		samples := auigen.BuildAUISamples(31, 64, auigen.DatasetConfig{})
		sharedModel = yolite.Train(samples, yolite.TrainConfig{Epochs: 8, Seed: 3})
	})
	if sharedModel == nil {
		t.Skip(sharedModelSkip)
	}
	return sharedModel
}

// TestEndToEndDecorationLandsOnGroundTruth runs the full stack — simulated
// app, accessibility events, ct debounce, screenshot, real trained
// detector, calibration, decoration — and checks that at least one
// decoration overlay lands on a real ground-truth option.
func TestEndToEndDecorationLandsOnGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration skipped in -short mode")
	}
	model := loadOrTrainModel(t)

	clock := sim.NewClock(11)
	screen := uikit.NewScreen(384, 640)
	mgr := a11y.NewManager(clock, screen)
	a := app.Launch(clock, mgr, app.Config{MeanAUIInterval: 5 * time.Second})
	svc := Start(clock, mgr, model, Config{})

	landed := 0
	checked := 0
	svc.OnAnalysis = func(an Analysis) {
		showing := a.Current()
		if showing == nil || len(an.Detections) == 0 {
			return
		}
		checked++
		// Ground-truth option rectangles in screen coordinates.
		var gtRects []geom.Rect
		ids := append(append([]string{}, showing.AUI.UPOIDs...), showing.AUI.AGOIDs...)
		for _, id := range ids {
			showing.AUI.Root.Walk(geom.Pt{X: showing.Window.Frame.X, Y: showing.Window.Frame.Y},
				func(v *uikit.View, abs geom.Rect) bool {
					if v.ID == id {
						gtRects = append(gtRects, abs)
						return false
					}
					return true
				})
		}
		for _, w := range svc.Decorations() {
			for _, gt := range gtRects {
				// The decoration is inset by the stroke width around the
				// detection; centre containment is the landing criterion.
				if w.Frame.Contains(gt.Center()) {
					landed++
					return
				}
			}
		}
	}
	clock.RunUntil(2 * time.Minute)
	svc.Stop()
	a.Stop()

	if checked == 0 {
		t.Fatal("no analyses coincided with a visible AUI")
	}
	if landed == 0 {
		t.Fatalf("decorations never landed on a ground-truth option (%d flagged analyses)", checked)
	}
	t.Logf("decorations landed on ground truth in %d/%d flagged analyses", landed, checked)
}

// TestEndToEndAutoBypassClosesPopups verifies the auto-bypass path actually
// closes AUI popups through real synthetic UI clicks.
func TestEndToEndAutoBypassClosesPopups(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end integration skipped in -short mode")
	}
	model := loadOrTrainModel(t)

	clock := sim.NewClock(12)
	screen := uikit.NewScreen(384, 640)
	mgr := a11y.NewManager(clock, screen)
	a := app.Launch(clock, mgr, app.Config{MeanAUIInterval: 5 * time.Second})
	svc := Start(clock, mgr, model, Config{AutoBypass: true, ConfThresh: 0.7})
	clock.RunUntil(3 * time.Minute)
	svc.Stop()
	a.Stop()

	shown, byClick := 0, 0
	for _, h := range a.History() {
		shown++
		if h.DismissedByClick {
			byClick++
		}
	}
	if shown == 0 {
		t.Fatal("app showed no AUIs")
	}
	if byClick == 0 {
		t.Fatalf("auto-bypass closed 0 of %d popups", shown)
	}
	t.Logf("auto-bypass closed %d/%d popups", byClick, shown)
}
