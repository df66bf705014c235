package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// stubDetector flags every screen as a UPO — deterministic and instant, so the tests exercise the event loop and serving plumbing
// rather than the model.
type stubDetector struct{}

func (stubDetector) Name() string { return "stub" }

func (stubDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = []metrics.Detection{{Class: dataset.ClassUPO, Score: 0.99}}
	}
	return out, nil
}

// smallConfig is a fleet sized for a unit test: enough devices and virtual
// time to exercise debounce, supersede, popups and bypass, small enough to
// run in well under a second.
func smallConfig(seed int64) Config {
	return Config{
		Devices:  150,
		Duration: 30 * time.Second,
		Seed:     seed,
		Bypass:   true,
		Library:  4,
		Workers:  8,
		MaxBatch: 8,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg, []detect.Detector{stubDetector{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// deterministic extracts the replay-stable slice of a Result: everything the
// virtual clock alone decides. Wall time, throughput and serve-internal
// watermarks are excluded by construction.
func deterministic(r *Result) [9]int {
	return [9]int{r.Events, r.Debounced, r.Analyses, r.Superseded, r.Flagged,
		r.Popups, r.Bypassed, r.RateLimited, r.Shed}
}

// TestReplayDeterminism pins satellite 1: same seed, same knobs → identical
// totals, bit for bit, however the worker goroutines interleaved; a different
// seed must produce a different run.
func TestReplayDeterminism(t *testing.T) {
	a := run(t, smallConfig(7))
	b := run(t, smallConfig(7))
	if deterministic(a) != deterministic(b) {
		t.Fatalf("same seed diverged:\n  a=%v\n  b=%v", deterministic(a), deterministic(b))
	}
	c := run(t, smallConfig(8))
	if deterministic(a) == deterministic(c) {
		t.Fatalf("different seeds replayed identically: %v", deterministic(a))
	}
	// The run must have actually exercised the machinery it claims to replay.
	if a.Events == 0 || a.Debounced == 0 || a.Analyses == 0 || a.Popups == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.RateLimited != 0 || a.Shed != 0 {
		t.Fatalf("admission interfered with an unlimited run: %+v", a)
	}
}

// TestChaosReplayStability extends the satellite-1 contract to fault
// injection: a seeded chaos plan perturbs only completion *outcomes* (which
// worker carried which batch is real-scheduling noise, so the
// completed/degraded split may shift between runs), never the virtual-time
// simulation — with bypass off, the clock-driven totals and the
// completion-conservation sum must replay identically for the same fleet
// and chaos seeds.
func TestChaosReplayStability(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(19)
		cfg.Bypass = false
		// Fresh plan per run: a Plan carries call counters, so reuse would
		// hand run B a different fault sequence by construction.
		cfg.Plan = faults.NewPlan(99, faults.Rule{Stage: "backend", Kind: faults.Error, Rate: 0.3})
		return cfg
	}
	a := run(t, mk())
	b := run(t, mk())
	if a.Degraded == 0 || b.Degraded == 0 {
		t.Fatalf("chaos plan injected nothing: a=%+v b=%+v", a, b)
	}
	simA := [4]int{a.Events, a.Debounced, a.Popups, a.Superseded}
	simB := [4]int{b.Events, b.Debounced, b.Popups, b.Superseded}
	if simA != simB {
		t.Fatalf("virtual-time totals diverged under chaos:\n  a=%v\n  b=%v", simA, simB)
	}
	ca := a.Analyses + a.Degraded + a.RateLimited + a.Shed
	cb := b.Analyses + b.Degraded + b.RateLimited + b.Shed
	if ca != cb {
		t.Fatalf("completion conservation diverged under chaos: %d vs %d", ca, cb)
	}
}

// TestSupersedeUnderChurn: burst churn arriving faster than the modeled
// analysis latency must invalidate in-flight cycles, exactly as
// core.Service does on-device.
func TestSupersedeUnderChurn(t *testing.T) {
	cfg := smallConfig(3)
	cfg.EventsPerMinute = 240 // storm: bursts every ~1.25s against 15-35ms analyses
	res := run(t, cfg)
	if res.Superseded == 0 {
		t.Fatalf("storm produced no superseded analyses: %+v", res)
	}
	if res.Debounced == 0 {
		t.Fatalf("storm produced no debounced events: %+v", res)
	}
}

// TestSpikeShapeAddsTraffic: the flash-crowd shape runs 5x rate over 10% of
// the run, so it must deliver measurably more events than steady at the same
// seed — and stay deterministic.
func TestSpikeShapeAddsTraffic(t *testing.T) {
	steady := run(t, smallConfig(11))
	spiky := smallConfig(11)
	spiky.Shape = ShapeSpike
	a := run(t, spiky)
	b := run(t, spiky)
	if deterministic(a) != deterministic(b) {
		t.Fatalf("shaped run diverged:\n  a=%v\n  b=%v", deterministic(a), deterministic(b))
	}
	if a.Events <= steady.Events {
		t.Fatalf("spike (%d events) did not exceed steady (%d events)", a.Events, steady.Events)
	}
}

// TestBypassDismissesPopups: with the stub flagging every screen, any popup
// analysed while showing must be auto-bypassed; with Bypass off none are.
func TestBypassDismissesPopups(t *testing.T) {
	withBypass := run(t, smallConfig(5))
	if withBypass.Bypassed == 0 {
		t.Fatalf("bypass enabled but no popups dismissed: %+v", withBypass)
	}
	if withBypass.Bypassed > withBypass.Popups {
		t.Fatalf("bypassed %d > shown %d", withBypass.Bypassed, withBypass.Popups)
	}
	off := smallConfig(5)
	off.Bypass = false
	if res := run(t, off); res.Bypassed != 0 {
		t.Fatalf("bypass disabled but %d popups dismissed", res.Bypassed)
	}
}

// TestResultFamilies: the ledger renders as valid Prometheus text with the
// key fleet series present, and the serve/timings families ride along.
func TestResultFamilies(t *testing.T) {
	res := run(t, smallConfig(13))
	text := metrics.TextString(res.Families())
	if n, err := metrics.ValidateText(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("families invalid (n=%d): %v\n%s", n, err, text)
	}
	for _, want := range []string{
		"darpa_fleet_devices 150",
		"darpa_fleet_sim_seconds 30",
		`darpa_fleet_events_total{kind="seen"}`,
		`darpa_fleet_analyses_total{outcome="completed"}`,
		`darpa_fleet_popups_total{kind="shown"}`,
		`darpa_cache_requests_total{outcome="hit"}`,
		`darpa_admission_requests_total{verdict="admitted"}`,
		"darpa_stage_latency_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q in exposition:\n%s", want, text)
		}
	}
	if res.CacheHits == 0 {
		t.Fatalf("library of 8 screens over %d analyses produced no cache hits", res.Analyses)
	}
}

// TestServedMatchesAnalyses: with admission wide open, every completed
// analysis was served by the stack — the serve ledger and the fleet ledger
// agree.
func TestServedMatchesAnalyses(t *testing.T) {
	res := run(t, smallConfig(17))
	if res.Serve.Admitted == 0 {
		t.Fatal("no requests admitted")
	}
	// Superseded cycles also transit the stack (their cancel may land before
	// or after service), so Admitted covers at least the completed analyses.
	if res.Serve.Admitted < res.Analyses {
		t.Fatalf("admitted %d < completed analyses %d", res.Serve.Admitted, res.Analyses)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Duration: time.Second}, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("Devices=0 accepted")
	}
	if _, err := Run(Config{Devices: 1}, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("Duration=0 accepted")
	}
	if _, err := Run(Config{Devices: 1, Duration: time.Second}, nil); err == nil {
		t.Error("no replicas accepted")
	}
	bad := Config{Devices: 1, Duration: time.Second, Shape: "sawtooth"}
	if _, err := Run(bad, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("unknown shape accepted")
	}
}

// TestDeviceRNGStreamsIndependent: adjacent devices' generators must not be
// correlated shifts of each other (the bug a naive seed+i construction has).
func TestDeviceRNGStreamsIndependent(t *testing.T) {
	a, b := deviceRNG(42, 0), deviceRNG(42, 1)
	matches := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			matches++
		}
	}
	if matches > 8 {
		t.Fatalf("adjacent device streams agree on %d/64 draws", matches)
	}
}
