package perfmodel

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestTimingsFamilies(t *testing.T) {
	rec := &Timings{}
	for i := 1; i <= 100; i++ {
		rec.Observe("infer", time.Duration(i)*time.Millisecond)
	}
	rec.ObserveBatch("serve-batch", 42*time.Millisecond, 42)

	fams := rec.Families()
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2", len(fams))
	}
	text := metrics.TextString(fams)
	if n, err := ValidateFamilies(text); err != nil || n == 0 {
		t.Fatalf("families do not render as valid exposition (n=%d): %v\n%s", n, err, text)
	}
	for _, want := range []string{
		`darpa_stage_latency_seconds{quantile="0.5",stage="infer"} 0.05`,
		`darpa_stage_latency_seconds{quantile="0.95",stage="infer"} 0.095`,
		`darpa_stage_latency_seconds{quantile="0.99",stage="infer"} 0.099`,
		`darpa_stage_latency_seconds_count{stage="infer"} 100`,
		`darpa_stage_latency_seconds_count{stage="serve-batch"} 42`,
		`darpa_stage_latency_max_seconds{stage="infer"} 0.1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q in:\n%s", want, text)
		}
	}
}

// ValidateFamilies runs the shared exposition validator over rendered text.
func ValidateFamilies(text string) (int, error) {
	return metrics.ValidateText(strings.NewReader(text))
}

func TestTimingsFamiliesNilAndEmpty(t *testing.T) {
	var nilRec *Timings
	if fams := nilRec.Families(); fams != nil {
		t.Errorf("nil recorder exported %d families", len(fams))
	}
	if fams := (&Timings{}).Families(); fams != nil {
		t.Errorf("empty recorder exported %d families", len(fams))
	}
}

// referenceQuantile computes the nearest-rank quantile over the expected
// recent window with a plain sort — the oracle the ring-buffer implementation
// is checked against.
func referenceQuantile(window []time.Duration, q float64) time.Duration {
	sorted := append([]time.Duration(nil), window...)
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

// TestLatencyStatsQuantileReference feeds N observations and compares every
// quantile the exporters use against a reference sort of the last
// min(N, window) observations — exactly at the window boundary, one short of
// it, one past it (first wrap), and deep into wrap-around where the ring
// cursor has lapped several times.
func TestLatencyStatsQuantileReference(t *testing.T) {
	const window = 512 // == latencyWindow; the test pins the documented size
	if window != latencyWindow {
		t.Fatalf("latencyWindow changed to %d; update the telemetry docs and this test", latencyWindow)
	}
	sizes := []int{1, 2, window - 1, window, window + 1, window + 7, 2*window + 3, 5*window + 91}
	quantiles := []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}
	rng := rand.New(rand.NewSource(7))
	for _, n := range sizes {
		var ls LatencyStats
		all := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			// Mix heavy-tail spikes into a uniform base so quantiles differ.
			d := time.Duration(rng.Intn(20000)) * time.Microsecond
			if rng.Intn(50) == 0 {
				d += time.Duration(rng.Intn(500)) * time.Millisecond
			}
			all = append(all, d)
			ls.Observe(d)
		}
		start := 0
		if n > window {
			start = n - window
		}
		recent := all[start:]
		for _, q := range quantiles {
			got, want := ls.Quantile(q), referenceQuantile(recent, q)
			if got != want {
				t.Errorf("n=%d q=%.2f: ring quantile %v, reference sort %v", n, q, got, want)
			}
		}
		if ls.Count != n {
			t.Errorf("n=%d: Count=%d", n, ls.Count)
		}
	}
}

// TestLatencyStatsQuantileWrapOrderIndependence pins that once the ring has
// wrapped, evictions are strictly oldest-first: a burst of large values
// followed by exactly `window` small ones must leave no trace of the burst.
func TestLatencyStatsQuantileWrapOrderIndependence(t *testing.T) {
	var ls LatencyStats
	for i := 0; i < 100; i++ {
		ls.Observe(time.Second) // the burst that must be fully evicted
	}
	for i := 0; i < latencyWindow; i++ {
		ls.Observe(time.Millisecond)
	}
	if got := ls.Quantile(1.0); got != time.Millisecond {
		t.Errorf("max over window = %v; burst leaked past its eviction point", got)
	}
	if ls.Max != time.Second {
		t.Errorf("all-time Max = %v, want 1s", ls.Max)
	}
}
