package app

import (
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/uikit"
)

func newEnv(seed int64) (*sim.Clock, *a11y.Manager) {
	clock := sim.NewClock(seed)
	screen := uikit.NewScreen(384, 640)
	return clock, a11y.NewManager(clock, screen)
}

func TestLaunchCreatesWindow(t *testing.T) {
	clock, mgr := newEnv(1)
	a := Launch(clock, mgr, Config{Package: "com.shop"})
	if mgr.Screen().TopWindow() != a.Window() {
		t.Fatal("app window not on screen")
	}
	if a.Package() != "com.shop" {
		t.Fatalf("package = %q", a.Package())
	}
}

func TestChurnEmitsEventsAtConfiguredRate(t *testing.T) {
	clock, mgr := newEnv(2)
	Launch(clock, mgr, Config{EventsPerMinute: 32, MeanAUIInterval: time.Hour})
	before := mgr.Stats().Emitted
	clock.RunFor(time.Minute)
	emitted := mgr.Stats().Emitted - before
	// 32 churn events per minute, plus a handful of AUI window events.
	if emitted < 28 || emitted > 45 {
		t.Fatalf("emitted %d events in a minute, want ~32", emitted)
	}
}

func TestAUIPopupLifecycle(t *testing.T) {
	clock, mgr := newEnv(3)
	a := Launch(clock, mgr, Config{MeanAUIInterval: 2 * time.Second})
	clock.RunFor(2 * time.Minute)
	hist := a.History()
	if len(hist) < 5 {
		t.Fatalf("only %d AUIs shown in 2 minutes with 2s mean interval", len(hist))
	}
	for i, h := range hist {
		if h.ShownAt == 0 && i > 0 {
			t.Fatalf("AUI %d has zero ShownAt", i)
		}
		if h.DismissedAt != 0 && h.DismissedAt < h.ShownAt {
			t.Fatalf("AUI %d dismissed before shown", i)
		}
		if h.DismissedAt != 0 {
			dwell := h.DismissedAt - h.ShownAt
			if dwell < 800*time.Millisecond || dwell > 6*time.Second {
				t.Fatalf("AUI %d dwell %v outside configured bounds", i, dwell)
			}
		}
	}
}

func TestOnlyOneAUIAtATime(t *testing.T) {
	clock, mgr := newEnv(4)
	a := Launch(clock, mgr, Config{MeanAUIInterval: time.Hour})
	a.ShowAUI()
	first := a.Current()
	a.ShowAUI() // ignored while one is up
	if a.Current() != first {
		t.Fatal("second ShowAUI replaced the first")
	}
	if len(a.History()) != 1 {
		t.Fatalf("history has %d entries, want 1", len(a.History()))
	}
	clock.RunFor(10 * time.Second) // let it self-dismiss
	if a.Current() != nil {
		t.Fatal("AUI never self-dismissed")
	}
}

func TestUPOClickDismisses(t *testing.T) {
	clock, mgr := newEnv(5)
	a := Launch(clock, mgr, Config{MeanAUIInterval: time.Hour})
	a.ShowAUI()
	showing := a.Current()
	if showing == nil {
		t.Fatal("no AUI showing")
	}
	// Find the UPO's absolute position and click it through the screen.
	upoID := showing.AUI.UPOIDs[0]
	var abs geom.Rect
	showing.AUI.Root.Walk(geom.Pt{X: showing.Window.Frame.X, Y: showing.Window.Frame.Y},
		func(v *uikit.View, r geom.Rect) bool {
			if v.ID == upoID {
				abs = r
				return false
			}
			return true
		})
	if abs.Empty() {
		t.Fatal("UPO not found in window")
	}
	if id := mgr.DispatchClick(abs.Center()); id != upoID {
		t.Fatalf("click hit %q, want %q", id, upoID)
	}
	if a.Current() != nil {
		t.Fatal("UPO click did not dismiss the AUI")
	}
	if !showing.DismissedByClick {
		t.Fatal("dismissal not recorded as click")
	}
}

func TestStopRemovesEverything(t *testing.T) {
	clock, mgr := newEnv(6)
	a := Launch(clock, mgr, Config{MeanAUIInterval: time.Second})
	clock.RunFor(5 * time.Second)
	a.Stop()
	if mgr.Screen().TopWindow() != nil {
		t.Fatal("windows remain after Stop")
	}
	before := len(a.History())
	clock.RunFor(time.Minute)
	if len(a.History()) != before {
		t.Fatal("app kept showing AUIs after Stop")
	}
	a.Stop() // idempotent
}

func TestObfuscationPropagates(t *testing.T) {
	clock, mgr := newEnv(7)
	a := Launch(clock, mgr, Config{Obfuscate: true, MeanAUIInterval: time.Hour})
	a.ShowAUI()
	for _, id := range a.Current().AUI.UPOIDs {
		if id == "btn_close" || id == "promo_close" {
			t.Fatalf("obfuscated app leaked semantic id %q", id)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []time.Duration {
		clock, mgr := newEnv(42)
		a := Launch(clock, mgr, Config{MeanAUIInterval: 3 * time.Second})
		clock.RunFor(time.Minute)
		var times []time.Duration
		for _, h := range a.History() {
			times = append(times, h.ShownAt)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different AUI counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs diverged")
		}
	}
}

func TestMonkeyClicksAndEmits(t *testing.T) {
	clock, mgr := newEnv(8)
	// One clickable view under the whole screen counts every tap.
	taps, clicked := 0, 0
	screen := mgr.Screen()
	screen.AddWindow(&uikit.Window{Owner: "monkey", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds(), Clickable: true, OnClick: func() { taps++ }}})
	mgr.Register(a11y.TypeViewClicked, func(a11y.Event) { clicked++ })
	m := StartMonkey(clock, mgr, "monkey", 100*time.Millisecond)
	clock.RunFor(10 * time.Second)
	if taps != 100 || clicked != 100 {
		t.Fatalf("monkey made %d taps and %d click events, want 100 of each", taps, clicked)
	}
	m.Stop()
	clock.RunFor(time.Second)
	if taps != 100 {
		t.Fatal("monkey kept tapping after Stop")
	}
}
