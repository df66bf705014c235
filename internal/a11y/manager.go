package a11y

import (
	"time"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/uikit"
)

// Event is one accessibility event as delivered to a registered service:
// type, source package and simulated timestamp. Deliberately no view object —
// the isolation boundary of real AS.
type Event struct {
	Type    EventType
	Package string
	Time    time.Duration
}

// Stats counts manager activity, feeding the overhead experiments.
type Stats struct {
	// Emitted counts events raised by apps and the system.
	Emitted int
	// Delivered counts callbacks actually invoked on services.
	Delivered int
	// Screenshots counts TakeScreenshot calls.
	Screenshots int
	// Gestures counts injected clicks.
	Gestures int
}

// binding is one registered service.
type binding struct {
	mask EventType
	cb   func(Event)
}

// Manager is the simulated accessibility system service. It owns the screen,
// fans events out to registered services, and exposes the privileged
// operations (screenshot, overlay, gesture) that the Android AS grants.
//
// Like the rest of the simulation, Manager is single-threaded on a sim.Clock.
type Manager struct {
	clock    *sim.Clock
	screen   *uikit.Screen
	services []*binding
	stats    Stats
}

// NewManager wires a manager to a clock and a screen.
func NewManager(clock *sim.Clock, screen *uikit.Screen) *Manager {
	if clock == nil || screen == nil {
		panic("a11y: NewManager requires a clock and a screen")
	}
	return &Manager{clock: clock, screen: screen}
}

// Screen returns the screen the manager observes.
func (m *Manager) Screen() *uikit.Screen { return m.screen }

// Stats returns a snapshot of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Register subscribes cb to every event type in mask. Every matching event
// is delivered: the service debounces bursts itself (core's cut-off ct).
func (m *Manager) Register(mask EventType, cb func(Event)) {
	if cb == nil {
		panic("a11y: Register requires a callback")
	}
	m.services = append(m.services, &binding{mask: mask, cb: cb})
}

// Emit raises an accessibility event from pkg. Apps call it on every UI
// mutation; the window manager calls it on window adds/removes.
func (m *Manager) Emit(t EventType, pkg string) {
	m.stats.Emitted++
	ev := Event{Type: t, Package: pkg, Time: m.clock.Now()}
	for _, b := range m.services {
		if b.mask&t == 0 {
			continue
		}
		m.stats.Delivered++
		b.cb(ev)
	}
}

// TakeScreenshot rasterises the current screen, the
// AccessibilityService.takeScreenshot of Android 11+. The caller owns the
// returned canvas and — per DARPA's security design — should Zero it as soon
// as inference is done.
func (m *Manager) TakeScreenshot() *render.Canvas {
	m.stats.Screenshots++
	return m.screen.Render()
}

// AddOverlay places a view tree in a system-alert overlay window at frame,
// the WindowManager.addView path of the paper's decoration module. It
// returns the window for later removal.
func (m *Manager) AddOverlay(owner string, frame geom.Rect, root *uikit.View) *uikit.Window {
	w := &uikit.Window{Owner: owner, Type: uikit.WindowOverlay, Frame: frame, Root: root}
	m.screen.AddWindow(w)
	return w
}

// RemoveOverlay removes a previously added overlay window.
func (m *Manager) RemoveOverlay(w *uikit.Window) {
	m.screen.RemoveWindow(w)
}

// DispatchClick injects a tap at p (AccessibilityService.dispatchGesture),
// used by DARPA's auto-bypass mode to click the UPO. It returns the resource
// id of the view that consumed the click, or "" when nothing did.
func (m *Manager) DispatchClick(p geom.Pt) string {
	m.stats.Gestures++
	if v := m.screen.Click(p); v != nil {
		return v.ID
	}
	return ""
}

// WindowOffset implements the decoration-calibration trick of Section IV-D:
// an unnoticeable 1x1 anchor view is added at coordinate <0,0> of the
// current (topmost) window, its on-screen location is read back
// (View.getLocationOnScreen), and the anchor is removed. The returned offset
// is the app window's displacement from the screen origin: (0,0) for
// full-screen apps, (0, statusBarHeight) for inset apps.
func (m *Manager) WindowOffset() geom.Pt {
	top := m.screen.TopWindow()
	if top == nil {
		return geom.Pt{}
	}
	anchor := &uikit.View{ID: "_darpa_anchor", Kind: uikit.KindContainer,
		Bounds: geom.Rect{X: 0, Y: 0, W: 1, H: 1}}
	if top.Root != nil {
		top.Root.Add(anchor)
		defer func() {
			// Remove the anchor again; it was the last child appended.
			top.Root.Children = top.Root.Children[:len(top.Root.Children)-1]
		}()
		var loc geom.Pt
		top.Root.Walk(geom.Pt{X: top.Frame.X, Y: top.Frame.Y}, func(v *uikit.View, abs geom.Rect) bool {
			if v == anchor {
				loc = geom.Pt{X: abs.X, Y: abs.Y}
				return false
			}
			return true
		})
		return loc
	}
	return geom.Pt{X: top.Frame.X, Y: top.Frame.Y}
}
