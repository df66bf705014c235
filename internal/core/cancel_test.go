package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/uikit"
)

// ctxDetector is a single-screen fake: when block is set, the call parks on
// ctx.Done() (signalling entered first) until the cycle is cancelled — the
// shape of a slow forward overtaken by events, deadlines or Stop. An optional
// hook runs re-entrantly inside the forward, standing in for anything that
// emits accessibility events mid-inference.
type ctxDetector struct {
	mu      sync.Mutex
	dets    []metrics.Detection
	block   bool
	hook    func(ctx context.Context) ([]metrics.Detection, error)
	entered chan struct{}
	calls   int
}

func (d *ctxDetector) Name() string { return "ctx-fake" }

func (d *ctxDetector) snapshot() []metrics.Detection {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]metrics.Detection, len(d.dets))
	copy(out, d.dets)
	return out
}

func (d *ctxDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err // the seam's contract: a dead context starts no work
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		dets, err := d.predict(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = dets
	}
	return out, nil
}

func (d *ctxDetector) predict(ctx context.Context) ([]metrics.Detection, error) {
	d.mu.Lock()
	d.calls++
	hook := d.hook
	d.hook = nil // hooks fire once; later cycles run normally
	d.mu.Unlock()
	if hook != nil {
		return hook(ctx)
	}
	if d.block {
		if d.entered != nil {
			select {
			case d.entered <- struct{}{}:
			default:
			}
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return d.snapshot(), nil
}

func (d *ctxDetector) ctxCalls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

var _ detect.Detector = (*ctxDetector)(nil)

// TestStopCancelsInflightAnalysis: Stop while a forward is executing must
// cancel it cooperatively, wait for the cycle to unwind, and leave no
// decoration behind — the cancelled cycle never reaches the act stage.
func TestStopCancelsInflightAnalysis(t *testing.T) {
	clock, mgr, _ := newEnv(20)
	d := &ctxDetector{block: true, entered: make(chan struct{}, 1),
		dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, d, Config{})
	s.OnAnalysis = func(Analysis) { t.Error("cancelled cycle reached the act stage") }
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	done := make(chan struct{})
	go func() {
		defer close(done)
		clock.RunFor(time.Second)
	}()
	<-d.entered // the forward is now parked on its cycle context
	s.Stop()
	// When Stop returns the cycle has fully unwound and is accounted.
	st := s.Stats()
	if st.Superseded != 1 || st.Analyses != 0 || st.TimedOut != 0 {
		t.Fatalf("stats after Stop: %+v", st)
	}
	if len(s.Decorations()) != 0 {
		t.Fatal("cancelled cycle left decorations on screen")
	}
	<-done
}

// TestEventSupersedesInflightAnalysis: an accessibility event arriving while
// a forward runs means the screen changed under the detector — the in-flight
// cycle must be cancelled (and counted Superseded), and the fresh event's own
// cycle must complete normally afterwards.
func TestEventSupersedesInflightAnalysis(t *testing.T) {
	clock, mgr, screen := newEnv(21)
	screen.AddWindow(&uikit.Window{Owner: "app", Type: uikit.WindowApp, Frame: screen.Bounds(),
		Root: &uikit.View{Kind: uikit.KindContainer, Bounds: screen.Bounds()}})
	d := &ctxDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	d.hook = func(ctx context.Context) ([]metrics.Detection, error) {
		if err := ctx.Err(); err != nil {
			t.Error("cycle context dead before the superseding event")
		}
		// The app redraws mid-inference; the callback runs re-entrantly on
		// this same goroutine, so this also proves onEvent cannot deadlock
		// against the running cycle.
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
		if err := ctx.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("fresh event did not cancel the in-flight ctx: %v", err)
		}
		return nil, ctx.Err()
	}
	s := Start(clock, mgr, d, Config{})
	observed := 0
	s.OnAnalysis = func(Analysis) { observed++ }
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	st := s.Stats()
	if st.Superseded != 1 {
		t.Fatalf("superseded = %d, want 1", st.Superseded)
	}
	if st.Analyses != 1 {
		t.Fatalf("analyses = %d, want 1 (the fresh event's cycle completes)", st.Analyses)
	}
	if st.EventsSeen != 2 {
		t.Fatalf("events seen = %d, want 2", st.EventsSeen)
	}
	if observed != 1 {
		t.Fatalf("observer saw %d analyses, want only the completed one", observed)
	}
	if len(s.Decorations()) != 1 {
		t.Fatalf("%d decorations, want 1 from the completed cycle", len(s.Decorations()))
	}
	s.Stop()
}

// TestDeadlineExpiryCountsTimedOut: Config.Deadline bounds a cycle in wall
// time; an expiry aborts the forward, counts TimedOut (not Superseded), and
// skips the act stage.
func TestDeadlineExpiryCountsTimedOut(t *testing.T) {
	clock, mgr, _ := newEnv(22)
	d := &ctxDetector{block: true, dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	s := Start(clock, mgr, d, Config{Deadline: 5 * time.Millisecond})
	s.OnAnalysis = func(Analysis) { t.Error("timed-out cycle reached the act stage") }
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	st := s.Stats()
	if st.TimedOut != 1 || st.Superseded != 0 || st.Analyses != 0 {
		t.Fatalf("stats = %+v, want exactly one TimedOut", st)
	}
	if len(s.Decorations()) != 0 {
		t.Fatal("timed-out cycle decorated")
	}
	s.Stop()
}

// TestStopRaceStress soaks Stop racing the in-flight cycle under -race:
// repeated rounds of event -> blocked forward -> concurrent Stop + Stats
// readers must neither deadlock nor leave decorations behind.
func TestStopRaceStress(t *testing.T) {
	for round := 0; round < 10; round++ {
		clock, mgr, _ := newEnv(int64(30 + round))
		d := &ctxDetector{block: true, entered: make(chan struct{}, 1),
			dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
		s := Start(clock, mgr, d, Config{})
		mgr.Emit(a11y.TypeWindowsChanged, "app")
		done := make(chan struct{})
		go func() {
			defer close(done)
			clock.RunFor(time.Second)
		}()
		<-d.entered
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ { // concurrent readers while Stop lands
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = s.Stats()
				_ = s.Decorations()
			}()
		}
		s.Stop()
		wg.Wait()
		<-done
		if st := s.Stats(); st.Superseded != 1 || st.Analyses != 0 {
			t.Fatalf("round %d: stats = %+v", round, st)
		}
		if len(s.Decorations()) != 0 {
			t.Fatalf("round %d: decorations survived Stop", round)
		}
	}
}

// TestAuditScreensCtxDeadContext: a cancelled audit returns its error and the
// screens fully audited so far without touching the backend again.
func TestAuditScreensCtxDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &ctxDetector{dets: []metrics.Detection{upoDet(20, 2, 4, 4)}}
	shots := []*render.Canvas{render.NewCanvas(384, 640), render.NewCanvas(384, 640), render.NewCanvas(384, 640)}
	out, err := AuditScreensCtx(ctx, d, shots, 0.3, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("dead-ctx audit returned %d screens, want 0", len(out))
	}
	if d.ctxCalls() != 0 {
		t.Fatal("dead-ctx audit still ran inference")
	}
	// The same call on Background is the legacy AuditScreens.
	full, err := AuditScreensCtx(context.Background(), d, shots, 0.3, 2)
	if err != nil || len(full) != 3 {
		t.Fatalf("Background audit: %d screens, err %v", len(full), err)
	}
}
