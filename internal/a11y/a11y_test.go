package a11y

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/uikit"
)

func newEnv() (*sim.Clock, *uikit.Screen, *Manager) {
	clock := sim.NewClock(1)
	screen := uikit.NewScreen(100, 160)
	return clock, screen, NewManager(clock, screen)
}

func TestAllTypesCount(t *testing.T) {
	if len(AllTypes) != 23 {
		t.Fatalf("paper registers 23 event types, package defines %d", len(AllTypes))
	}
	seen := map[EventType]bool{}
	for _, et := range AllTypes {
		if seen[et] {
			t.Fatalf("duplicate event type %v", et)
		}
		seen[et] = true
		if TypeAllMask&et == 0 {
			t.Fatalf("%v missing from TypeAllMask", et)
		}
	}
}

func TestEventCodeMatchesPaper(t *testing.T) {
	// Section V: "the event TYPE_WINDOWS_CHANGED corresponds to code 0x00400000".
	if TypeWindowsChanged != 0x00400000 {
		t.Fatalf("TYPE_WINDOWS_CHANGED = %#x, want 0x00400000", int(TypeWindowsChanged))
	}
	if TypeWindowContentChanged != 0x800 {
		t.Fatalf("TYPE_WINDOW_CONTENT_CHANGED = %#x, want 0x800", int(TypeWindowContentChanged))
	}
}

func TestTypeString(t *testing.T) {
	if TypeViewFocused.String() != "TYPE_VIEW_FOCUSED" {
		t.Fatalf("got %q", TypeViewFocused.String())
	}
	if EventType(0x40000000).String() == "" {
		t.Fatal("unknown type should still format")
	}
}

func TestRegisterMaskFiltering(t *testing.T) {
	_, _, m := newEnv()
	var got []EventType
	m.Register(TypeWindowContentChanged|TypeViewClicked, func(e Event) {
		got = append(got, e.Type)
	})
	m.Emit(TypeWindowContentChanged, "a")
	m.Emit(TypeViewScrolled, "a") // not subscribed
	m.Emit(TypeViewClicked, "a")
	if len(got) != 2 || got[0] != TypeWindowContentChanged || got[1] != TypeViewClicked {
		t.Fatalf("delivered %v", got)
	}
	st := m.Stats()
	if st.Emitted != 3 || st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMultipleServices(t *testing.T) {
	_, _, m := newEnv()
	a, b := 0, 0
	m.Register(TypeAllMask, func(Event) { a++ })
	m.Register(TypeViewClicked, func(Event) { b++ })
	m.Emit(TypeViewClicked, "x")
	m.Emit(TypeViewScrolled, "x")
	if a != 2 || b != 1 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestTakeScreenshotSeesScreen(t *testing.T) {
	_, screen, m := newEnv()
	root := &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: 100, H: 100}, Color: render.Red}
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp, Frame: geom.Rect{W: 100, H: 100}, Root: root})
	shot := m.TakeScreenshot()
	if shot.At(50, 50) != render.Red {
		t.Fatalf("screenshot pixel = %v", shot.At(50, 50))
	}
	if m.Stats().Screenshots != 1 {
		t.Fatal("screenshot not counted")
	}
}

func TestOverlayLifecycle(t *testing.T) {
	_, screen, m := newEnv()
	ol := m.AddOverlay("darpa", geom.Rect{X: 10, Y: 10, W: 20, H: 20},
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{W: 20, H: 20}, Color: render.Green})
	if got := screen.Render().At(15, 15); got != render.Green {
		t.Fatalf("overlay not rendered: %v", got)
	}
	m.RemoveOverlay(ol)
	if got := screen.Render().At(15, 15); got == render.Green {
		t.Fatal("overlay still rendered after removal")
	}
}

func TestDispatchClick(t *testing.T) {
	_, screen, m := newEnv()
	clicked := false
	root := &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: 100, H: 100}}
	root.Add(&uikit.View{ID: "upo_close", Kind: uikit.KindButton,
		Bounds: geom.Rect{X: 80, Y: 5, W: 12, H: 12}, Clickable: true,
		OnClick: func() { clicked = true }})
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp, Frame: geom.Rect{W: 100, H: 100}, Root: root})
	if id := m.DispatchClick(geom.Pt{X: 85, Y: 10}); id != "upo_close" || !clicked {
		t.Fatalf("DispatchClick returned %q, clicked=%v", id, clicked)
	}
	if id := m.DispatchClick(geom.Pt{X: 50, Y: 90}); id != "" {
		t.Fatalf("empty area click returned %q", id)
	}
	if m.Stats().Gestures != 2 {
		t.Fatalf("gestures = %d", m.Stats().Gestures)
	}
}

func TestWindowOffsetFullScreen(t *testing.T) {
	_, screen, m := newEnv()
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp,
		Frame: screen.Bounds(),
		Root:  &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: 100, H: 160}}})
	if off := m.WindowOffset(); off != (geom.Pt{}) {
		t.Fatalf("full-screen offset = %v, want (0,0)", off)
	}
}

func TestWindowOffsetInsetApp(t *testing.T) {
	_, screen, m := newEnv()
	frame := screen.ContentFrame()
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp, Frame: frame,
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: frame.W, H: frame.H}}})
	off := m.WindowOffset()
	if off != (geom.Pt{X: 0, Y: frame.Y}) {
		t.Fatalf("inset offset = %v, want (0,%d)", off, frame.Y)
	}
}

func TestWindowOffsetRemovesAnchor(t *testing.T) {
	_, screen, m := newEnv()
	root := &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: 100, H: 100}}
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp, Frame: geom.Rect{W: 100, H: 100}, Root: root})
	m.WindowOffset()
	if len(root.Children) != 0 {
		t.Fatalf("anchor view leaked: %d children", len(root.Children))
	}
}

func TestWindowOffsetNoWindows(t *testing.T) {
	_, _, m := newEnv()
	if off := m.WindowOffset(); off != (geom.Pt{}) {
		t.Fatalf("offset with no windows = %v", off)
	}
}

func TestWindowOffsetSkipsOverlay(t *testing.T) {
	_, screen, m := newEnv()
	frame := screen.ContentFrame()
	screen.AddWindow(&uikit.Window{Owner: "a", Type: uikit.WindowApp, Frame: frame,
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: geom.Rect{W: frame.W, H: frame.H}}})
	m.AddOverlay("darpa", geom.Rect{X: 5, Y: 5, W: 10, H: 10},
		&uikit.View{Kind: uikit.KindImage, Bounds: geom.Rect{W: 10, H: 10}})
	// The offset must be computed against the app window, not our own overlay.
	if off := m.WindowOffset(); off != (geom.Pt{X: 0, Y: frame.Y}) {
		t.Fatalf("offset = %v, want app window offset (0,%d)", off, frame.Y)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	_, _, m := newEnv()
	m.Register(TypeAllMask, nil)
}
