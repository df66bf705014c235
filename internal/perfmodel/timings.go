package perfmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// latencyWindow bounds the per-stage sample reservoir backing the quantile
// estimates: the most recent latencyWindow wall-clock observations are kept
// in a ring. A sliding window (rather than all-time reservoir sampling)
// makes the percentiles track the *current* behaviour of a long-lived
// service — a latency regression shows up within one window instead of
// being averaged away against hours of history.
const latencyWindow = 512

// LatencyStats accumulates wall-clock latency observations for one pipeline
// stage. The zero value is ready to use. Count/Total/Max cover everything
// ever observed; the quantile accessors (Quantile, P50/P95/P99) are computed
// over the most recent latencyWindow observations.
type LatencyStats struct {
	Count int
	Total time.Duration
	Max   time.Duration

	// samples is the recent-window ring behind Quantile; next is the ring
	// cursor once the window is full.
	samples []time.Duration
	next    int
}

// Observe folds one measurement into the counters.
func (l *LatencyStats) Observe(d time.Duration) { l.observe(d, 1) }

// observe folds items measured under one wall-clock interval d: Count
// advances by items, Max and the quantile window see d once.
func (l *LatencyStats) observe(d time.Duration, items int) {
	l.Count += items
	l.Total += d
	if d > l.Max {
		l.Max = d
	}
	if len(l.samples) < latencyWindow {
		l.samples = append(l.samples, d)
		return
	}
	l.samples[l.next] = d
	l.next = (l.next + 1) % latencyWindow
}

// clone deep-copies the stats so a snapshot shares no storage with the live
// recorder (the ring is mutated in place once full).
func (l *LatencyStats) clone() LatencyStats {
	c := *l
	c.samples = append([]time.Duration(nil), l.samples...)
	return c
}

// Mean returns the average observed latency, 0 when nothing was observed.
func (l LatencyStats) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Total / time.Duration(l.Count)
}

// Quantile returns the q-th (0 < q <= 1) latency quantile over the recent
// observation window, using the nearest-rank method. It returns 0 when
// nothing was observed. Batched observations count once (the batch's wall
// time), matching how Max treats them.
func (l LatencyStats) Quantile(q float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// P50 is the median of the recent observation window.
func (l LatencyStats) P50() time.Duration { return l.Quantile(0.50) }

// P95 is the 95th percentile of the recent observation window.
func (l LatencyStats) P95() time.Duration { return l.Quantile(0.95) }

// P99 is the 99th percentile of the recent observation window — the tail
// the scheduler's latency claims are judged on.
func (l LatencyStats) P99() time.Duration { return l.Quantile(0.99) }

// Timings collects per-stage latency — the measured counterpart of the
// analytical per-unit costs above. The service pipeline, the serving layer
// and the fleet feed it, so an operator can see where a detection cycle
// spends its time (the decomposition behind Table VII's incremental rows).
// It records durations only: every count the system keeps lives in the
// owning component's Stats. Safe for concurrent use.
type Timings struct {
	mu     sync.Mutex
	stages map[string]*LatencyStats
}

// Observe records one measurement for the named stage. A nil recorder is a
// no-op, so components with an optional *Timings hook need not guard it.
func (t *Timings) Observe(stage string, d time.Duration) {
	t.ObserveBatch(stage, d, 1)
}

// ObserveBatch records a batch of items measured under one wall-clock
// interval: Count advances by items — so Mean() reports the amortised
// per-item latency — while Max treats the batch as a single observation.
// A nil recorder or a non-positive item count is a no-op.
func (t *Timings) ObserveBatch(stage string, d time.Duration, items int) {
	if t == nil || items <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stages == nil {
		t.stages = make(map[string]*LatencyStats)
	}
	s := t.stages[stage]
	if s == nil {
		s = &LatencyStats{}
		t.stages[stage] = s
	}
	s.observe(d, items)
}

// Stage returns a snapshot of one stage's counters. A nil recorder reports
// zero counters.
func (t *Timings) Stage(name string) LatencyStats {
	if t == nil {
		return LatencyStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.stages[name]; ok {
		return s.clone()
	}
	return LatencyStats{}
}

// Stages returns the observed stage names, sorted. A nil recorder has none.
func (t *Timings) Stages() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.stages))
	for name := range t.stages {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every stage's counters under a single lock acquisition,
// so the returned map is one consistent point-in-time view — concurrent
// recorders cannot skew one stage against another, which per-stage Stage()
// calls allow. The map is a copy; mutating it does not affect the recorder.
// A nil recorder returns nil.
func (t *Timings) Snapshot() map[string]LatencyStats {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]LatencyStats, len(t.stages))
	for name, s := range t.stages {
		out[name] = s.clone()
	}
	return out
}

// String renders a one-line-per-stage summary for logs, from one consistent
// snapshot (a single lock acquisition, not one per stage).
func (t *Timings) String() string {
	snap := t.Snapshot()
	if len(snap) == 0 {
		return "no timings recorded"
	}
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		s := snap[name]
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: n=%d mean=%v p50=%v p95=%v p99=%v max=%v", name, s.Count,
			s.Mean().Round(time.Microsecond), s.P50().Round(time.Microsecond),
			s.P95().Round(time.Microsecond), s.P99().Round(time.Microsecond),
			s.Max.Round(time.Microsecond))
	}
	return b.String()
}
