package fleet

import (
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/uikit"
)

// screenW/screenH is every handset's display resolution, 4x the model input.
const screenW, screenH = 384, 640

// HandsetConfig assembles one fully simulated device. Zero values take the
// darpa-sim defaults: a 2s Monkey.
type HandsetConfig struct {
	// Seed drives the handset's clock (and through it the Monkey and the
	// app's popup schedule).
	Seed int64
	// App configures the simulated foreground app (package name, AUI
	// cadence, obfuscation).
	App app.Config
	// MonkeyPeriod is the random-tap interval; zero means 2s.
	MonkeyPeriod time.Duration
	// Service configures the DARPA accessibility service started by Start.
	Service core.Config
}

// Handset is one complete simulated device: virtual clock, screen,
// accessibility manager, a foreground app popping AUIs, a Monkey tapping at
// it, and the DARPA service watching through the a11y layer. It is the
// single-device counterpart to the event-driven fleet — experiments and
// darpa-sim's classic mode both run exactly this assembly, so their
// construction order (and with it their replay behaviour) can never drift
// apart again.
//
// Construction is two-phase: NewHandset wires the passive pieces (clock,
// screen, manager) so callers can point detector build contexts at the
// screen; Start then launches the active ones against a detector.
//
// The handset joins each verdict (core.FlagsAUI) to the truth, which the
// service never reads: Verdicts scores every analysis against whether the
// app had a popup up, and PopupsCaught counts the popups flagged at least once.
type Handset struct {
	Clock   *sim.Clock
	Screen  *uikit.Screen
	Mgr     *a11y.Manager
	App     *app.App
	Monkey  *app.Monkey
	Service *core.Service

	Verdicts     metrics.Confusion
	PopupsCaught int
	// OnAnalysis, when non-nil, receives each scored analysis and its truth
	// label; Start takes the service's own hook.
	OnAnalysis func(an core.Analysis, aui bool)

	lastCaught *app.AUIShowing
	cfg        HandsetConfig
}

// NewHandset builds the passive half of a device: clock, screen and
// accessibility manager. Nothing is scheduled yet.
func NewHandset(cfg HandsetConfig) *Handset {
	if cfg.MonkeyPeriod <= 0 {
		cfg.MonkeyPeriod = 2 * time.Second
	}
	clock := sim.NewClock(cfg.Seed)
	screen := uikit.NewScreen(screenW, screenH)
	return &Handset{
		Clock:  clock,
		Screen: screen,
		Mgr:    a11y.NewManager(clock, screen),
		cfg:    cfg,
	}
}

// Start launches the app, the Monkey and the DARPA service (in that order,
// matching the pre-extraction callers) and returns the service.
func (h *Handset) Start(det detect.Detector) *core.Service {
	h.App = app.Launch(h.Clock, h.Mgr, h.cfg.App)
	h.Monkey = app.StartMonkey(h.Clock, h.Mgr, "monkey", h.cfg.MonkeyPeriod)
	h.Service = core.Start(h.Clock, h.Mgr, det, h.cfg.Service)
	h.Service.OnAnalysis = h.score
	return h.Service
}

// score joins one analysis's verdict against the popup up as it completes.
// Popups come one at a time and never return, so the last one caught is all
// it takes to count each once.
func (h *Handset) score(an core.Analysis) {
	showing := h.App.Current()
	flagged := core.FlagsAUI(an.Detections)
	h.Verdicts.Add(showing != nil, flagged)
	if flagged && showing != nil && showing != h.lastCaught {
		h.lastCaught = showing
		h.PopupsCaught++
	}
	if h.OnAnalysis != nil {
		h.OnAnalysis(an, showing != nil)
	}
}

// Run advances the handset's virtual clock to the given elapsed time.
func (h *Handset) Run(d time.Duration) { h.Clock.RunUntil(d) }

// Stop tears the active pieces down in the order every caller used: Monkey
// first (no new taps), then the service, then the app.
func (h *Handset) Stop() {
	if h.Monkey != nil {
		h.Monkey.Stop()
	}
	if h.Service != nil {
		h.Service.Stop()
	}
	if h.App != nil {
		h.App.Stop()
	}
}
