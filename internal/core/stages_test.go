package core

import (
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/detect"
)

func TestStageNamesAndBounds(t *testing.T) {
	want := map[Stage]string{
		StageCapture: "capture", StagePreprocess: "preprocess", StageInfer: "infer",
		StagePostprocess: "postprocess", StageAct: "act",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), name)
		}
	}
	if Stage(-1).String() != "unknown" || NumStages.String() != "unknown" {
		t.Error("out-of-range stages should stringify as unknown")
	}
	if (Stats{}).Stage(Stage(-1)) != (StageStats{}) {
		t.Error("out-of-range Stage() should return zero stats")
	}
}

func TestStagesRunOncePerAnalysis(t *testing.T) {
	clock, mgr, _ := newEnv(21)
	s := Start(clock, mgr, &fakeDetector{}, Config{})
	for i := 0; i < 3; i++ {
		mgr.Emit(a11y.TypeWindowContentChanged, "app")
		clock.RunFor(time.Second)
	}
	st := s.Stats()
	if st.Analyses != 3 {
		t.Fatalf("analyses = %d", st.Analyses)
	}
	for stage := Stage(0); stage < NumStages; stage++ {
		ss := st.Stage(stage)
		if ss.Runs != 3 {
			t.Errorf("stage %v ran %d times, want 3", stage, ss.Runs)
		}
		if rec := s.Timings().Stage(stage.String()); rec.Count != 3 {
			t.Errorf("timings for %v recorded %d, want 3", stage, rec.Count)
		}
	}
}

func TestMonitorModeSkipsAllStages(t *testing.T) {
	clock, mgr, _ := newEnv(22)
	s := Start(clock, mgr, nil, Config{Mode: ModeMonitor})
	mgr.Emit(a11y.TypeWindowContentChanged, "app")
	clock.RunFor(time.Second)
	for stage := Stage(0); stage < NumStages; stage++ {
		if ss := s.Stats().Stage(stage); ss.Runs != 0 {
			t.Errorf("monitor mode ran stage %v %d times", stage, ss.Runs)
		}
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
	// Stage counters still tick for every analysis — the cache is inside
	// the infer stage, not a bypass of it.
	if ss := st.Stage(StageInfer); ss.Runs != 4 {
		t.Fatalf("infer stage ran %d times, want 4", ss.Runs)
	}
}
