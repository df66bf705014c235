package perfmodel

import (
	"strings"
	"testing"
	"time"
)

func TestLatencyStatsObserve(t *testing.T) {
	var l LatencyStats
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	if l.Count != 2 || l.Total != 40*time.Millisecond || l.Max != 30*time.Millisecond {
		t.Fatalf("stats = %+v", l)
	}
	if l.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v", l.Mean())
	}
	if (LatencyStats{}).Mean() != 0 {
		t.Fatal("zero-value mean should be 0")
	}
}

// TestTimingsObserveBatch: one whole-batch observation counts every item, so
// Mean() stays an amortised per-item figure while Max keeps the whole-batch
// wall-clock duration.
func TestTimingsObserveBatch(t *testing.T) {
	rec := &Timings{}
	rec.ObserveBatch("infer", 80*time.Millisecond, 8)
	s := rec.Stage("infer")
	if s.Count != 8 || s.Max != 80*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
	if s.Mean() != 10*time.Millisecond {
		t.Fatalf("amortised mean = %v, want 10ms", s.Mean())
	}
	rec.ObserveBatch("infer", time.Millisecond, 0)
	if rec.Stage("infer").Count != 8 {
		t.Fatal("zero-item batch should not be recorded")
	}
}

// TestTimingsNilReceiver: detector middleware threads an optional recorder
// through unconditionally, so a nil *Timings must absorb observations.
func TestTimingsNilReceiver(t *testing.T) {
	var rec *Timings
	rec.Observe("infer", time.Millisecond)
	rec.ObserveBatch("infer", time.Millisecond, 4)
	if got := rec.Stage("infer").Count; got != 0 {
		t.Fatalf("nil recorder reported Count=%d", got)
	}
	if rec.String() == "" {
		t.Fatal("nil recorder should still print a placeholder summary")
	}
}

// TestTimingsSnapshot: one call, one lock, every stage — and the returned
// map is detached from the recorder.
func TestTimingsSnapshot(t *testing.T) {
	rec := &Timings{}
	rec.Observe("infer", 10*time.Millisecond)
	rec.ObserveBatch("capture", 6*time.Millisecond, 3)
	snap := rec.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d stages, want 2", len(snap))
	}
	if snap["infer"].Count != 1 || snap["capture"].Count != 3 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap["capture"].Mean() != 2*time.Millisecond {
		t.Fatalf("capture mean = %v", snap["capture"].Mean())
	}
	// Detached: later observations must not appear in the old snapshot.
	rec.Observe("infer", time.Millisecond)
	if snap["infer"].Count != 1 {
		t.Fatal("snapshot aliases live recorder state")
	}
	var nilRec *Timings
	if nilRec.Snapshot() != nil {
		t.Fatal("nil recorder snapshot should be nil")
	}
}

func TestTimingsStages(t *testing.T) {
	rec := &Timings{}
	rec.Observe("infer", 5*time.Millisecond)
	rec.Observe("infer", 7*time.Millisecond)
	rec.Observe("capture", time.Millisecond)

	if got := rec.Stage("infer").Count; got != 2 {
		t.Fatalf("infer count = %d", got)
	}
	if got := rec.Stage("missing").Count; got != 0 {
		t.Fatalf("unknown stage count = %d", got)
	}
	stages := rec.Stages()
	if len(stages) != 2 || stages[0] != "capture" || stages[1] != "infer" {
		t.Fatalf("stages = %v, want sorted [capture infer]", stages)
	}
	if s := rec.String(); !strings.Contains(s, "infer: n=2") {
		t.Fatalf("summary %q missing infer stats", s)
	}
}

// TestLatencyStatsQuantiles: nearest-rank percentiles over a known
// distribution, so the scheduler's latency claims are distribution-backed
// rather than mean-only.
func TestLatencyStatsQuantiles(t *testing.T) {
	var l LatencyStats
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := l.P50(); got != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", got)
	}
	if got := l.P95(); got != 95*time.Millisecond {
		t.Fatalf("P95 = %v, want 95ms", got)
	}
	if got := l.P99(); got != 99*time.Millisecond {
		t.Fatalf("P99 = %v, want 99ms", got)
	}
	if got := (LatencyStats{}).P99(); got != 0 {
		t.Fatalf("empty P99 = %v, want 0", got)
	}
}

// TestLatencyStatsQuantileWindow: the reservoir is a sliding window — once
// more than latencyWindow observations land, old ones age out, so the
// quantiles describe recent behaviour.
func TestLatencyStatsQuantileWindow(t *testing.T) {
	var l LatencyStats
	for i := 0; i < latencyWindow; i++ {
		l.Observe(time.Millisecond)
	}
	for i := 0; i < latencyWindow; i++ {
		l.Observe(time.Second)
	}
	if got := l.P50(); got != time.Second {
		t.Fatalf("P50 after window rollover = %v, want 1s", got)
	}
	if l.Count != 2*latencyWindow {
		t.Fatalf("Count = %d, want %d", l.Count, 2*latencyWindow)
	}
}

// TestTimingsSnapshotQuantiles: Snapshot/String surface percentiles, and the
// snapshot shares no sample storage with the live recorder (a concurrent
// Observe after Snapshot must not skew the copy).
func TestTimingsSnapshotQuantiles(t *testing.T) {
	rec := &Timings{}
	for i := 1; i <= 4; i++ {
		rec.Observe("infer", time.Duration(i)*time.Millisecond)
	}
	snap := rec.Snapshot()["infer"]
	if got := snap.P50(); got != 2*time.Millisecond {
		t.Fatalf("snapshot P50 = %v, want 2ms", got)
	}
	rec.Observe("infer", time.Hour)
	if got := snap.P99(); got != 4*time.Millisecond {
		t.Fatalf("snapshot mutated by later Observe: P99 = %v", got)
	}
	if s := rec.String(); !strings.Contains(s, "p50=") || !strings.Contains(s, "p99=") {
		t.Fatalf("String() %q missing percentiles", s)
	}
	// ObserveBatch counts the batch once in the window (like Max), so an
	// 8-item batch does not flood the quantiles with one latency.
	rec2 := &Timings{}
	rec2.ObserveBatch("serve-batch", 80*time.Millisecond, 8)
	rec2.Observe("serve-batch", 2*time.Millisecond)
	if got := rec2.Stage("serve-batch").P50(); got != 2*time.Millisecond {
		t.Fatalf("batched stage P50 = %v, want 2ms (batch counted once)", got)
	}
}
