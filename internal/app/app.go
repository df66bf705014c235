// Package app simulates the Android applications DARPA monitors: apps churn
// their UI at realistic event rates (the paper measured ~32 accessibility
// events per minute for Taobao), occasionally pop asymmetric dark UIs with
// known ground truth, and optionally obfuscate their resource ids (which is
// what defeats the FraudDroid-like baseline of Section VI-C).
package app

import (
	"fmt"
	"time"

	"repro/internal/a11y"
	"repro/internal/auigen"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/uikit"
)

// The simulated app's timing. Config's zero values take the first two; the
// fleet simulator's devices run the same numbers.
const (
	// DefaultEventsPerMinute is the background UI-update event rate, the
	// Taobao rate from Section IV-B.
	DefaultEventsPerMinute = 32
	// DefaultMeanAUIInterval is the mean time between AUI popups.
	DefaultMeanAUIInterval = 15 * time.Second
	// BurstLen is the mean number of events per churn burst: the events per
	// minute arrive as periodic bursts, the pattern ct-debouncing exploits.
	BurstLen = 5
	// AUIDwellMin/Max bound how long an AUI stays on screen before the app
	// dismisses it itself: AUIs need user exposure (Section IV-B), but some
	// are transient.
	AUIDwellMin = 800 * time.Millisecond
	AUIDwellMax = 6 * time.Second
)

// Config shapes a simulated app's behaviour. The zero value is a typical
// content app.
type Config struct {
	// Package is the app's package name; empty means "com.example.app".
	Package string
	// EventsPerMinute is the background UI-update event rate. Zero means
	// DefaultEventsPerMinute.
	EventsPerMinute float64
	// MeanAUIInterval is the mean time between AUI popups. Zero means
	// DefaultMeanAUIInterval.
	MeanAUIInterval time.Duration
	// AUIProb disables AUI popups entirely when 0 < p < 1 fails a draw at
	// launch; zero means always-on (1.0).
	AUIProb float64
	// Obfuscate replaces resource ids with meaningless tokens.
	Obfuscate bool
	// GenSeed seeds the app's AUI generator; zero derives it from the
	// package name length (still deterministic).
	GenSeed int64
}

func (c Config) pkg() string {
	if c.Package == "" {
		return "com.example.app"
	}
	return c.Package
}

func (c Config) eventsPerMinute() float64 {
	if c.EventsPerMinute == 0 {
		return DefaultEventsPerMinute
	}
	return c.EventsPerMinute
}

func (c Config) meanAUIInterval() time.Duration {
	if c.MeanAUIInterval == 0 {
		return DefaultMeanAUIInterval
	}
	return c.MeanAUIInterval
}

// AUIShowing describes one AUI popup instance on a running app.
type AUIShowing struct {
	AUI *auigen.AUI
	// Window is the dialog window hosting the AUI.
	Window *uikit.Window
	// ShownAt / DismissedAt are simulated timestamps; DismissedAt is zero
	// while showing.
	ShownAt, DismissedAt time.Duration
	// DismissedByClick reports the popup was closed through its UPO.
	DismissedByClick bool
}

// App is one simulated application bound to a screen and event bus.
type App struct {
	cfg    Config
	clock  *sim.Clock
	mgr    *a11y.Manager
	screen *uikit.Screen
	gen    *auigen.Generator

	window  *uikit.Window
	base    *auigen.NonAUI
	current *AUIShowing
	history []*AUIShowing

	churn   *sim.Ticker
	nextAUI *sim.Event
	stopped bool
}

// Launch creates the app's main window on the manager's screen and starts
// its background activity (content churn and AUI scheduling).
func Launch(clock *sim.Clock, mgr *a11y.Manager, cfg Config) *App {
	a := &App{cfg: cfg, clock: clock, mgr: mgr, screen: mgr.Screen()}
	seed := cfg.GenSeed
	if seed == 0 {
		seed = int64(len(cfg.pkg()))*7919 + 17
	}
	a.gen = auigen.New(seed, auigen.Config{ObfuscateIDs: cfg.Obfuscate})

	frame := a.screen.ContentFrame()
	a.base = a.gen.NonAUI(frame.W, frame.H)
	a.window = &uikit.Window{Owner: cfg.pkg(), Type: uikit.WindowApp, Frame: frame, Root: a.base.Root}
	a.screen.AddWindow(a.window)
	mgr.Emit(a11y.TypeWindowStateChanged, cfg.pkg())

	// Background churn. Real apps emit accessibility events in tight
	// bursts (an animation tick or list update yields several events within
	// ~150ms, then silence): the configured events-per-minute arrive as
	// periodic bursts, which is exactly the pattern ct-debouncing exploits.
	period := time.Duration(float64(time.Minute) / cfg.eventsPerMinute() * BurstLen)
	a.churn = clock.NewTicker(period, a.churnBurst)

	if cfg.AUIProb == 0 || a.gen.Rand().Float64() < cfg.AUIProb {
		a.scheduleNextAUI()
	}
	return a
}

// Package returns the app's package name.
func (a *App) Package() string { return a.cfg.pkg() }

// Window returns the app's main window.
func (a *App) Window() *uikit.Window { return a.window }

// Current returns the AUI currently showing, or nil.
func (a *App) Current() *AUIShowing { return a.current }

// History returns every AUI popup the app has shown so far, in order.
func (a *App) History() []*AUIShowing {
	out := make([]*AUIShowing, len(a.history))
	copy(out, a.history)
	return out
}

// Stop halts all scheduled activity and removes the app's windows.
func (a *App) Stop() {
	if a.stopped {
		return
	}
	a.stopped = true
	a.churn.Stop()
	if a.nextAUI != nil {
		a.nextAUI.Cancel()
	}
	a.DismissAUI(false)
	a.screen.RemoveWindow(a.window)
	a.mgr.Emit(a11y.TypeWindowsChanged, a.cfg.pkg())
}

// churnBurst emits one burst of UI-update events spaced ~120ms apart.
func (a *App) churnBurst() {
	if a.stopped {
		return
	}
	n := 3 + a.gen.Rand().Intn(5)
	for i := 0; i < n; i++ {
		a.clock.Schedule(time.Duration(i)*time.Duration(100+a.gen.Rand().Intn(60))*time.Millisecond,
			a.churnOnce)
	}
}

// churnOnce mutates some cosmetic part of the base UI and emits the
// corresponding event — the high-frequency noise DARPA must debounce.
func (a *App) churnOnce() {
	if a.stopped {
		return
	}
	rng := a.gen.Rand()
	// Toggle the colour of a random leaf view.
	var leaves []*uikit.View
	var collect func(v *uikit.View)
	collect = func(v *uikit.View) {
		if len(v.Children) == 0 {
			leaves = append(leaves, v)
			return
		}
		for _, c := range v.Children {
			collect(c)
		}
	}
	collect(a.base.Root)
	if len(leaves) > 0 {
		leaf := leaves[rng.Intn(len(leaves))]
		if leaf.Color.A > 0 {
			leaf.Color = render.RGB(leaf.Color.R, leaf.Color.G^0x20, leaf.Color.B)
		}
	}
	events := []a11y.EventType{
		a11y.TypeWindowContentChanged, a11y.TypeWindowContentChanged,
		a11y.TypeViewScrolled, a11y.TypeViewFocused,
	}
	a.mgr.Emit(events[rng.Intn(len(events))], a.cfg.pkg())
}

// scheduleNextAUI arms the next popup at an exponential interval.
func (a *App) scheduleNextAUI() {
	if a.stopped {
		return
	}
	mean := float64(a.cfg.meanAUIInterval())
	delay := time.Duration(a.gen.Rand().ExpFloat64() * mean)
	if delay < 500*time.Millisecond {
		delay = 500 * time.Millisecond
	}
	a.nextAUI = a.clock.Schedule(delay, a.ShowAUI)
}

// ShowAUI pops an asymmetric dark UI immediately (normally driven by the
// scheduler; exposed for tests and experiments).
func (a *App) ShowAUI() {
	if a.stopped || a.current != nil {
		return
	}
	frame := a.screen.ContentFrame()
	aui := a.gen.AUI(frame.W, frame.H)
	if aui.FullScreen {
		frame = a.screen.Bounds()
		aui = a.gen.AUIFor(aui.Subject, frame.W, frame.H)
	}
	win := &uikit.Window{Owner: a.cfg.pkg(), Type: uikit.WindowDialog, Frame: frame, Root: aui.Root}
	showing := &AUIShowing{AUI: aui, Window: win, ShownAt: a.clock.Now()}
	// Wire the UPO(s) to dismiss the popup; the AGO "navigates" (here: it
	// just churns content, standing in for the redirect).
	for _, id := range aui.UPOIDs {
		if v := aui.Root.FindByID(id); v != nil {
			v.OnClick = func() { a.dismiss(showing, true) }
		}
	}
	for _, id := range aui.AGOIDs {
		if v := aui.Root.FindByID(id); v != nil {
			v.OnClick = func() {
				a.mgr.Emit(a11y.TypeWindowStateChanged, a.cfg.pkg())
			}
		}
	}
	a.current = showing
	a.history = append(a.history, showing)
	a.screen.AddWindow(win)
	a.mgr.Emit(a11y.TypeWindowsChanged, a.cfg.pkg())
	a.mgr.Emit(a11y.TypeWindowStateChanged, a.cfg.pkg())

	// Self-dismiss after the dwell time if the user never found the UPO.
	dwell := AUIDwellMin + time.Duration(a.gen.Rand().Int63n(int64(AUIDwellMax-AUIDwellMin)+1))
	a.clock.Schedule(dwell, func() { a.dismiss(showing, false) })
}

// DismissAUI closes the current popup, if any.
func (a *App) DismissAUI(byClick bool) {
	if a.current != nil {
		a.dismiss(a.current, byClick)
	}
}

func (a *App) dismiss(s *AUIShowing, byClick bool) {
	if a.current != s || s.DismissedAt != 0 {
		return
	}
	s.DismissedAt = a.clock.Now()
	s.DismissedByClick = byClick
	a.current = nil
	a.screen.RemoveWindow(s.Window)
	a.mgr.Emit(a11y.TypeWindowsChanged, a.cfg.pkg())
	if !a.stopped {
		a.scheduleNextAUI()
	}
}

// String describes the app for logs.
func (a *App) String() string {
	return fmt.Sprintf("app(%s, %d AUIs shown)", a.cfg.pkg(), len(a.history))
}
