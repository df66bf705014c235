package core

import (
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/detect"
)

// allStages lists the cycle's steps in execution order.
var allStages = []string{StageCapture, StagePreprocess, StageInfer, StagePostprocess, StageAct}

func TestStagesRunOncePerAnalysis(t *testing.T) {
	clock, mgr, _ := newEnv(21)
	s := Start(clock, mgr, &fakeDetector{}, Config{})
	for i := 0; i < 3; i++ {
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
		clock.RunFor(time.Second)
	}
	if st := s.Stats(); st.Analyses != 3 {
		t.Fatalf("analyses = %d", st.Analyses)
	}
	for _, stage := range allStages {
		if rec := s.Timings().Stage(stage); rec.Count != 3 {
			t.Errorf("timings for %s recorded %d, want 3", stage, rec.Count)
		}
	}
	if got := s.Timings().Stages(); len(got) != len(allStages) {
		t.Errorf("timed stages %v, want exactly %v", got, allStages)
	}
}

func TestMonitorModeSkipsAllStages(t *testing.T) {
	clock, mgr, _ := newEnv(22)
	s := Start(clock, mgr, nil, Config{Mode: ModeMonitor})
	mgr.Emit(a11y.TypeWindowContentChanged, "app")
	clock.RunFor(time.Second)
	if got := s.Timings().Stages(); len(got) != 0 {
		t.Errorf("monitor mode ran stages %v", got)
	}
}

// TestCallerCacheSkipsRepeatInference: a caller that wants a result cache
// wraps its detector before Start, as fleet does.
func TestCallerCacheSkipsRepeatInference(t *testing.T) {
	clock, mgr, _ := newEnv(23)
	det := &fakeDetector{}
	c := detect.WithResultCache(det, 0)
	s := Start(clock, mgr, c, Config{})
	// A static screen: every analysis sees identical pixels.
	for i := 0; i < 4; i++ {
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
		clock.RunFor(time.Second)
	}
	st := s.Stats()
	if st.Analyses != 4 {
		t.Fatalf("analyses = %d", st.Analyses)
	}
	if det.calls != 1 {
		t.Fatalf("inner detector ran %d times; the result cache should absorb repeats of an unchanged screen", det.calls)
	}
	if c.Hits() != 3 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 3/1", c.Hits(), c.Misses())
	}
	// The infer step still runs for every analysis — the cache is inside
	// it, not a bypass of it.
	if n := s.Timings().Stage(StageInfer).Count; n != 4 {
		t.Fatalf("infer stage ran %d times, want 4", n)
	}
}
