package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uikit"
)

// chaosStub is a fast healthy backend for chaos runs: real inference would
// dominate the -race run without exercising any more of the resilience
// plumbing. It answers a fixed, valid detection for every item.
type chaosStub struct{ name string }

func (s *chaosStub) Name() string { return s.name }

func (s *chaosStub) dets() []metrics.Detection {
	return []metrics.Detection{{Class: dataset.ClassUPO, B: geom.BoxF{X: 10, Y: 20, W: 16, H: 8}, Score: 0.9}}
}

func (s *chaosStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = s.dets()
	}
	return out, nil
}

// TestChaosFleetSurvives runs a multi-device fleet through a shared serving
// stack whose backend is under heavy fault injection — ~30% errors, latency
// spikes, a deterministic panic every 37th call, and a flaky fallback — and
// pins the PR's containment contract:
//
//   - zero crashes: every injected panic is recovered at a seam;
//   - zero goroutine leaks once every service and the Batcher shut down;
//   - per-device cycle accounting stays consistent: every cycle that
//     captured a screenshot lands in exactly one of {acted, superseded,
//     timed out, degraded};
//   - at least 95% of eligible screens are still served (retry + fallback
//     absorb the injected failure rate).
//
// Run with -race; the whole point is hammering the resilience layers from
// many goroutines at once.
func TestChaosFleetSurvives(t *testing.T) {
	const devices = 6
	baseGoroutines := runtime.NumGoroutine()

	plan := faults.NewPlan(5,
		faults.Rule{Kind: faults.Panic, Every: 37},
		faults.Rule{Kind: faults.Error, Rate: 0.3},
		faults.Rule{Kind: faults.Corrupt, Rate: 0.05},
		faults.Rule{Kind: faults.Latency, Rate: 0.1, Latency: 200 * time.Microsecond},
	)
	fallbackPlan := faults.NewPlan(6, faults.Rule{Kind: faults.Error, Rate: 0.2})
	shared := serve.NewReplicated(
		serve.Options{MaxBatch: devices},
		faults.Wrap(&chaosStub{name: "primary"}, plan),
	)

	stats := make([]Stats, devices)
	captured := make([]int, devices)
	acted := make([]int, devices)
	retried := make([]int, devices)
	fallbacks := make([]detect.FallbackStats, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			clock := sim.NewClock(int64(42 + d))
			screen := uikit.NewScreen(384, 640)
			mgr := a11y.NewManager(clock, screen)
			a := app.Launch(clock, mgr, app.Config{
				Package:         fmt.Sprintf("com.chaos.app%02d", d),
				MeanAUIInterval: 5 * time.Second,
				GenSeed:         int64(100 + d),
			})
			monkey := app.StartMonkey(clock, mgr, "monkey", 2*time.Second)
			retrier := detect.WithRetry(shared, 3)
			chain := detect.WithFallback(retrier, faults.Wrap(&chaosStub{name: "fallback"}, fallbackPlan))
			svc := Start(clock, mgr, chain, Config{})
			clock.RunUntil(2 * time.Minute)
			monkey.Stop()
			svc.Stop()
			a.Stop()
			stats[d] = svc.Stats()
			captured[d] = svc.Timings().Stage(StageCapture).Count
			acted[d] = svc.Timings().Stage(StageAct).Count
			retried[d] = retrier.Stats().Retries
			fallbacks[d] = chain.Stats()
		}(d)
	}
	wg.Wait()
	shared.Close()

	var agg Stats
	var served, retries, fellBack, trips int
	for d, st := range stats {
		if captured[d] != acted[d]+st.Superseded+st.TimedOut+st.Degraded {
			t.Errorf("device %d: cycle accounting off: %d captured != %d acted + %d superseded + %d timed out + %d degraded",
				d, captured[d], acted[d], st.Superseded, st.TimedOut, st.Degraded)
		}
		if captured[d] == 0 {
			t.Errorf("device %d analysed nothing", d)
		}
		agg.Superseded += st.Superseded
		agg.TimedOut += st.TimedOut
		agg.Degraded += st.Degraded
		retries += retried[d]
		fellBack += fallbacks[d].FellBack
		for _, b := range fallbacks[d].Backends {
			trips += b.Tripped
		}
		served += acted[d]
	}

	if plan.TotalInjected() == 0 {
		t.Fatal("no faults were injected; the chaos scenario is vacuous")
	}
	if retries == 0 {
		t.Error("no retries recorded under a 30% error rate")
	}
	// A breaker opens on five consecutive failures of one chain member. Retry
	// leaves the primary failing ~5% of calls, so five in a row is well under
	// a one-in-a-million event, and the fallback only runs on those: a trip
	// here means the chain charged a retried-away failure to a member.
	if trips != 0 {
		t.Errorf("%d breaker trips with retry absorbing the error rate, want 0", trips)
	}
	eligible := served + agg.Degraded
	if eligible == 0 {
		t.Fatal("no cycles reached the infer decision")
	}
	if frac := float64(served) / float64(eligible); frac < 0.95 {
		t.Errorf("only %.1f%% of %d eligible screens served (%d degraded); want >= 95%%",
			100*frac, eligible, agg.Degraded)
	}
	t.Logf("chaos fleet: primary %s; fallback %s; %d/%d screens served, %d retries, %d fallback-served, %d degraded",
		plan, fallbackPlan, served, eligible, retries, fellBack, agg.Degraded)

	// Leak check: everything is stopped, so the goroutine count must settle
	// back to (at most) where it started, give or take runtime housekeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after chaos fleet\n%s",
				baseGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCorruptBackendDegradesEveryCycle: a service composed with no wrappers
// over a backend whose every answer carries a NaN box must still hold the
// answer to the seam's contract — every cycle that reaches infer degrades,
// and nothing is flagged or drawn.
func TestCorruptBackendDegradesEveryCycle(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{Kind: faults.Corrupt, Rate: 1})
	clock := sim.NewClock(42)
	mgr := a11y.NewManager(clock, uikit.NewScreen(384, 640))
	a := app.Launch(clock, mgr, app.Config{Package: "com.chaos.corrupt", MeanAUIInterval: 5 * time.Second, GenSeed: 3})
	monkey := app.StartMonkey(clock, mgr, "monkey", 2*time.Second)
	svc := Start(clock, mgr, faults.Wrap(&chaosStub{name: "primary"}, plan), Config{})
	clock.RunUntil(time.Minute)
	monkey.Stop()
	svc.Stop()
	a.Stop()
	st := svc.Stats()
	inferred := svc.Timings().Stage(StageInfer).Count
	if inferred == 0 || plan.Injected(faults.Corrupt) != inferred {
		t.Fatalf("%d cycles reached infer, %s: want every one corrupted", inferred, plan)
	}
	if st.Degraded != inferred || st.Analyses != 0 || st.AUIFlagged != 0 || st.DecorationsDrawn != 0 {
		t.Fatalf("stats = %+v: want all %d inferred cycles degraded and nothing flagged or drawn", st, inferred)
	}
}
