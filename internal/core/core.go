// Package core implements DARPA itself — the paper's contribution: an
// accessibility-service app that (1) subscribes to all 23 accessibility
// events, (2) debounces UI-update storms with a cut-off interval ct
// (Section IV-B), (3) screenshots the stable UI and runs the ported CV
// detector, (4) calibrates coordinates with the anchor-view offset trick
// (Section IV-D / Figure 4), (5) draws decoration overlays around the
// detected AGO/UPO, and optionally (6) auto-clicks the UPO to bypass the
// dark pattern.
//
// Security hygiene follows Section IV-E: the screenshot buffer is zeroed
// ("rinsed") immediately after inference, and the service needs no
// capability beyond the accessibility surface itself.
package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/a11y"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// Mode selects how much of the pipeline runs — the incremental rows of
// Table VII.
type Mode int

// Pipeline modes. They begin at 1 so the zero value is detectably invalid;
// Config treats 0 as ModeFull.
const (
	// ModeMonitor only subscribes to events and debounces (row
	// "Baseline + UI monitoring").
	ModeMonitor Mode = iota + 1
	// ModeDetect adds screenshots + CV inference (row "+ AUI detection").
	ModeDetect
	// ModeFull adds UI decoration (the complete DARPA).
	ModeFull
)

// Config parameterises the service. The zero value is the paper's deployed
// configuration (ct = 200ms, full pipeline, decoration only).
type Config struct {
	// Cutoff is ct: the quiet period after the last UI event before a
	// screenshot is taken. Zero means 200ms (Section VI-E).
	Cutoff time.Duration
	// ConfThresh is the detector's objectness threshold. Zero means
	// yolite.DefaultConfThresh.
	ConfThresh float64
	// Mode truncates the pipeline for overhead decomposition. Zero means
	// ModeFull.
	Mode Mode
	// AutoBypass clicks the best UPO instead of only decorating — the
	// alternative option of Section IV-D.
	AutoBypass bool
	// DisableCalibration skips the anchor-view offset correction,
	// reproducing the Figure 4(a) misplacement for the ablation bench.
	DisableCalibration bool
	// Deadline bounds one analysis cycle in wall-clock time (the simulation
	// clock is virtual, but inference compute is real). When it expires the
	// detector aborts within roughly one conv layer, the cycle is counted in
	// Stats.TimedOut, and the act stage (decoration, observers, bypass) is
	// skipped. Zero means no deadline.
	Deadline time.Duration
}

func (c Config) cutoff() time.Duration {
	if c.Cutoff == 0 {
		return 200 * time.Millisecond
	}
	return c.Cutoff
}

func (c Config) confThresh() float64 {
	if c.ConfThresh == 0 {
		return yolite.DefaultConfThresh
	}
	return c.ConfThresh
}

func (c Config) mode() Mode {
	if c.Mode == 0 {
		return ModeFull
	}
	return c.Mode
}

// Stats counts service activity for the overhead model. How often each
// step of the cycle ran, and for how long, is in Service.Timings.
type Stats struct {
	// EventsSeen counts accessibility callbacks received.
	EventsSeen int
	// Debounced counts callbacks that reset a pending ct timer (work
	// avoided).
	Debounced int
	// Analyses counts screenshot+inference cycles that completed.
	Analyses int
	// Superseded counts in-flight analyses cancelled before completion —
	// by a fresh accessibility event (the screen changed under the
	// detector, so the result would describe a stale UI) or by Stop.
	Superseded int
	// TimedOut counts in-flight analyses aborted by Config.Deadline.
	TimedOut int
	// Degraded counts analyses abandoned because the detector failed
	// (error, panic, or corrupt result that survived whatever retry and
	// fallback the caller wrapped it in): the cycle skips decoration instead
	// of crashing the service — the screen simply goes unprotected, which is
	// the graceful floor.
	Degraded int
	// AUIFlagged counts analyses that flag their screen (FlagsAUI: a UPO).
	AUIFlagged int
	// DecorationsDrawn counts decoration views added.
	DecorationsDrawn int
	// Bypasses counts auto-clicks dispatched.
	Bypasses int
}

// Analysis is one completed detection cycle, as handed to OnAnalysis.
type Analysis struct {
	At         time.Duration
	Package    string
	Detections []metrics.Detection // screen coordinates
}

// Service is the running DARPA instance.
//
// The accessibility callbacks and analysis cycles run on the simulation
// clock's goroutine, but Stop and the read accessors are safe to call from
// any goroutine: mu guards all mutable state, and no stage work runs under
// it (so re-entrant events — a detector or observer emitting mid-cycle —
// cannot deadlock).
type Service struct {
	cfg      Config
	clock    *sim.Clock
	mgr      *a11y.Manager
	detector detect.Detector
	timings  *perfmodel.Timings

	mu          sync.Mutex
	pending     *sim.Event
	lastPkg     string
	decorations []*uikit.Window
	stats       Stats
	stopped     bool
	// inflightCancel/inflightDone track the analysis cycle currently
	// executing, if any: cancel aborts it cooperatively, done closes when it
	// has fully unwound. They let a fresh event supersede stale work and let
	// Stop guarantee nothing is still running when it returns.
	inflightCancel context.CancelFunc
	inflightDone   chan struct{}

	// OnAnalysis, when non-nil, observes each analysis as it happens. Set it
	// before events flow. Observers must not call Stop (Stop waits for the
	// in-flight cycle, which would be the observer's own).
	OnAnalysis func(Analysis)
}

// Start registers DARPA on the accessibility manager and returns the
// running service. detector is the ported on-device model (or any
// detect.Detector, typically built via detect.Build). A caller that wants a
// result cache, retry or a fallback chain composes detect's wrappers around
// the detector before Start and reads their counts from their own Stats.
func Start(clock *sim.Clock, mgr *a11y.Manager, detector detect.Detector, cfg Config) *Service {
	if detector == nil && cfg.mode() != ModeMonitor {
		panic("core: Start requires a detector unless running monitor-only")
	}
	s := &Service{cfg: cfg, clock: clock, mgr: mgr, detector: detector, timings: &perfmodel.Timings{}}
	// Event registration (Fig. 5 step 1): all 23 event types.
	mgr.Register(a11y.TypeAllMask, s.onEvent)
	return s
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Timings returns the per-step recorder, keyed by the Stage* names: each
// step's run count and wall-clock time. The recorder is live; callers
// should treat it as read-only.
func (s *Service) Timings() *perfmodel.Timings { return s.timings }

// Stop cancels pending work — including an analysis currently executing,
// which aborts cooperatively within roughly one conv layer — waits for it to
// unwind, and removes any decoration overlays. When Stop returns, no cycle
// is running and none will start; a cycle cancelled mid-flight never reaches
// the act stage, so it leaves no decorations behind. The registration itself
// stays (the simulated AS has no unregister, like a disabled service that
// ignores callbacks). Must not be called from an OnAnalysis observer.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopped = true
	if s.pending != nil {
		s.pending.Cancel()
	}
	cancel, done := s.inflightCancel, s.inflightDone
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
	s.clearDecorations()
}

// onEvent is the accessibility callback (Fig. 5 step 2): every UI change
// re-arms the ct timer, so analysis happens only once the UI has been quiet
// for ct — the paper's insight that AUIs must stay on screen long enough to
// be seen. An event arriving while an analysis is executing also cancels
// that analysis: the screen just changed under the detector, so its result
// would describe a UI that no longer exists (the in-flight extension of the
// same staleness argument).
func (s *Service) onEvent(e a11y.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return
	}
	s.stats.EventsSeen++
	s.lastPkg = e.Package
	if s.pending != nil && !s.pending.Cancelled() {
		s.pending.Cancel()
		s.stats.Debounced++
	}
	if s.inflightCancel != nil {
		s.inflightCancel()
	}
	s.pending = s.clock.Schedule(s.cfg.cutoff(), s.analyze)
}

// beginAnalysis opens one analysis cycle: it builds the cycle's context
// (bounded by Config.Deadline) and registers
// it as the in-flight work that onEvent and Stop can cancel. The returned
// finish must run when the cycle unwinds; ok is false when the service is
// stopped.
func (s *Service) beginAnalysis() (ctx context.Context, finish func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return nil, nil, false
	}
	s.pending = nil
	var cancel context.CancelFunc
	if d := s.cfg.Deadline; d > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), d)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	done := make(chan struct{})
	s.inflightCancel = cancel
	s.inflightDone = done
	finish = func() {
		s.mu.Lock()
		if s.inflightDone == done {
			s.inflightCancel = nil
			s.inflightDone = nil
		}
		s.mu.Unlock()
		cancel()
		close(done)
	}
	return ctx, finish, true
}

// abandon accounts one cycle that did not complete: deadline expiries count
// as TimedOut, every other cancellation (fresh event, Stop) as Superseded.
func (s *Service) abandon(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(err, context.DeadlineExceeded) {
		s.stats.TimedOut++
	} else {
		s.stats.Superseded++
	}
}

// degrade accounts one cycle whose detector failed outright (an error,
// panic, or corrupt result that survived whatever retry and fallback the
// caller composed around it). Degraded mode is the graceful floor of the
// service: the cycle skips decoration — the screen goes unprotected this
// once — instead of crashing, and the failure is counted in Stats.Degraded.
func (s *Service) degrade() {
	s.mu.Lock()
	s.stats.Degraded++
	s.mu.Unlock()
}

// analyze runs one detection cycle (Fig. 5 steps 3-5): capture ->
// preprocess -> infer -> postprocess -> act, each step timed into Timings.
// The cycle runs under a per-analysis context: between steps (and, inside
// inference, between conv layers) a cancel or deadline expiry aborts the
// remaining work — in particular a cancelled cycle never reaches act, so
// stale detections are never drawn, reported, or clicked.
func (s *Service) analyze() {
	ctx, finish, ok := s.beginAnalysis()
	if !ok {
		return
	}
	defer finish()
	// Remove previous decorations before the screenshot so they are not
	// re-detected (Fig. 5, "remove its previous AUI decoration").
	s.clearDecorations()
	if s.cfg.mode() == ModeMonitor {
		return
	}
	x := s.preprocess(s.capture())
	if err := ctx.Err(); err != nil {
		s.abandon(err)
		return
	}
	dets, err := s.infer(ctx, x)
	if err == nil {
		// Catch a cancel that landed between inference finishing and now:
		// the result is already stale.
		err = ctx.Err()
	}
	if err != nil {
		// A cancellation or deadline expiry is the caller's doing and counts
		// as abandoned; anything else is the detector failing, which
		// degrades the cycle (skip decoration, keep serving) instead of
		// crashing the service.
		if ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.abandon(err)
		} else {
			s.degrade()
		}
		return
	}
	s.mu.Lock()
	s.stats.Analyses++
	s.mu.Unlock()
	dets, shift := s.postprocess(dets)
	if err := ctx.Err(); err != nil {
		s.abandon(err)
		return
	}
	s.mu.Lock()
	rec := Analysis{At: s.clock.Now(), Package: s.lastPkg, Detections: dets}
	s.mu.Unlock()
	s.act(rec, shift)
}

// decorate draws a high-contrast border overlay around each detected option
// (Section IV-D), moved by the calibrated shift postprocess measured.
func (s *Service) decorate(dets []metrics.Detection, shift geom.Pt) {
	for _, dec := range PlanDecorations(dets, render.Color{}, render.Color{}, 0) {
		frame := dec.Frame.Translate(shift.X, shift.Y)
		w := s.mgr.AddOverlay("org.darpa.aui", frame, decorationView(frame, dec.Stroke, dec.Color))
		s.mu.Lock()
		s.decorations = append(s.decorations, w)
		s.stats.DecorationsDrawn++
		s.mu.Unlock()
	}
}

// decorationView builds the border view used as decoration content.
func decorationView(frame geom.Rect, width int, col render.Color) *uikit.View {
	root := &uikit.View{ID: "darpa_decoration", Kind: uikit.KindImage,
		Bounds: geom.Rect{W: frame.W, H: frame.H}}
	root.Add(
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{W: frame.W, H: width}, Color: col},
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{Y: frame.H - width, W: frame.W, H: width}, Color: col},
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{Y: width, W: width, H: frame.H - 2*width}, Color: col},
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{X: frame.W - width, Y: width, W: width, H: frame.H - 2*width}, Color: col},
	)
	return root
}

// bypass auto-clicks the detected UPO regions, highest confidence first
// (Section IV-D's "automatically sends a click event to the UPO region").
// Up to three regions are tried: a benign false positive absorbs one click
// harmlessly, while the real close button still gets hit.
func (s *Service) bypass(dets []metrics.Detection) {
	upos := BypassTargets(dets)
	if len(upos) == 0 {
		return
	}
	s.mu.Lock()
	s.stats.Bypasses++
	s.mu.Unlock()
	for _, d := range upos {
		s.mgr.DispatchClick(d.B.Rect().Center())
	}
}

// clearDecorations removes every decoration overlay. The windows are
// detached from the service under the lock, then removed from the manager
// outside it (manager calls never run under mu).
func (s *Service) clearDecorations() {
	s.mu.Lock()
	ws := s.decorations
	s.decorations = nil
	s.mu.Unlock()
	for _, w := range ws {
		s.mgr.RemoveOverlay(w)
	}
}

// Decorations returns the decoration overlay windows currently on screen.
func (s *Service) Decorations() []*uikit.Window {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*uikit.Window, len(s.decorations))
	copy(out, s.decorations)
	return out
}
