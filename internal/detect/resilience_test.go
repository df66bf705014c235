package detect

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// flakyBackend fails (error, panic, or corrupt result) for its first
// failures calls, then serves dets for every item.
type flakyBackend struct {
	name     string
	dets     []metrics.Detection
	failures int
	err      error // error to return while failing; nil means panic
	corrupt  bool  // return a NaN result instead of an error while failing
	calls    int
}

func (f *flakyBackend) Name() string {
	if f.name == "" {
		return "flaky"
	}
	return f.name
}

func (f *flakyBackend) serve() ([]metrics.Detection, error) {
	f.calls++
	if f.calls <= f.failures {
		switch {
		case f.corrupt:
			return []metrics.Detection{{B: det(math.NaN(), 0, 1, 1, 0.5).B, Score: 0.5}}, nil
		case f.err != nil:
			return nil, f.err
		default:
			panic("flaky backend crash")
		}
	}
	return append([]metrics.Detection(nil), f.dets...), nil
}

func (f *flakyBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dets, err := f.serve()
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = append([]metrics.Detection(nil), dets...)
	}
	return out, nil
}

func healthyDets() []metrics.Detection {
	return []metrics.Detection{det(10, 20, 30, 40, 0.9), det(1, 2, 3, 4, 0.5)}
}

func sameDets(a, b []metrics.Detection) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func resTensor(n int) *tensor.Tensor {
	x := tensor.New(n, 1, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	return x
}

func TestValidDetections(t *testing.T) {
	cases := []struct {
		name string
		dets []metrics.Detection
		want bool
	}{
		{"empty", nil, true},
		{"healthy", healthyDets(), true},
		{"nan box", []metrics.Detection{det(math.NaN(), 0, 1, 1, 0.5)}, false},
		{"inf box", []metrics.Detection{det(0, math.Inf(1), 1, 1, 0.5)}, false},
		{"negative width", []metrics.Detection{det(0, 0, -1, 1, 0.5)}, false},
		{"negative height", []metrics.Detection{det(0, 0, 1, -1, 0.5)}, false},
		{"score above one", []metrics.Detection{det(0, 0, 1, 1, 1.5)}, false},
		{"score below zero", []metrics.Detection{det(0, 0, 1, 1, -0.1)}, false},
		{"nan score", []metrics.Detection{det(0, 0, 1, 1, math.NaN())}, false},
		{"zero size ok", []metrics.Detection{det(5, 5, 0, 0, 0)}, true},
	}
	for _, c := range cases {
		if got := ValidDetections(c.dets); got != c.want {
			t.Errorf("%s: ValidDetections = %v, want %v", c.name, got, c.want)
		}
	}
}

// fastRetry is WithRetry backing off for a nanosecond, so retry tests do not
// sleep.
func fastRetry(d Detector, attempts int) *Retrier {
	r := WithRetry(d, attempts)
	r.baseDelay, r.maxDelay = 1, 1
	return r
}

// breakerChain is WithFallback with the breaker thresholds a test needs.
func breakerChain(breakAfter, cooldown int, backends ...Detector) *FallbackChain {
	f := WithFallback(backends...)
	f.breakAfter, f.cooldown = breakAfter, cooldown
	return f
}

func TestGuardedConvertsPanics(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 1} // panic once
	x := resTensor(1)

	_, err := Guarded(context.Background(), b, x, 0.5)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *PanicError", err)
	}
	if pe.Value != "flaky backend crash" {
		t.Fatalf("recovered value = %v", pe.Value)
	}
	// The backend has now used up its failure; the pass-through is intact.
	dets, err := Only(Guarded(context.Background(), b, x, 0.5))
	if err != nil || !sameDets(dets, healthyDets()) {
		t.Fatalf("healthy pass-through: dets=%v err=%v", dets, err)
	}
}

func TestRetryTransparentOnSuccess(t *testing.T) {
	b := &flakyBackend{dets: healthyDets()}
	r := WithRetry(b, 0)
	x := resTensor(1)

	dets, err := Predict(context.Background(), r, x, 0, 0.5)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if !sameDets(dets, healthyDets()) {
		t.Fatalf("retry altered a successful result: %v", dets)
	}
	if b.calls != 1 {
		t.Fatalf("backend called %d times, want 1", b.calls)
	}
	st := r.Stats()
	if st.Calls != 1 || st.Retries != 0 || st.Recovered != 0 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryRecoversAfterFailures(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 2, err: errors.New("transient")}
	r := fastRetry(b, 3)
	dets, err := Predict(context.Background(), r, resTensor(1), 0, 0.5)
	if err != nil {
		t.Fatalf("retry should have recovered: %v", err)
	}
	if !sameDets(dets, healthyDets()) {
		t.Fatalf("recovered result differs: %v", dets)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Recovered != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 1} // panic once
	r := fastRetry(b, 0)
	dets, err := Predict(context.Background(), r, resTensor(1), 0, 0.5)
	if err != nil || !sameDets(dets, healthyDets()) {
		t.Fatalf("dets=%v err=%v", dets, err)
	}
}

func TestRetryExhaustsAndReportsLastError(t *testing.T) {
	boom := errors.New("boom")
	b := &flakyBackend{dets: healthyDets(), failures: 100, err: boom}
	r := fastRetry(b, 3)
	_, err := Predict(context.Background(), r, resTensor(1), 0, 0.5)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if b.calls != 3 {
		t.Fatalf("backend called %d times, want 3", b.calls)
	}
	if st := r.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryRejectsCorruptResults(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 100, corrupt: true}
	r := fastRetry(b, 2)
	_, err := Predict(context.Background(), r, resTensor(1), 0, 0.5)
	if !errors.Is(err, ErrCorruptResult) {
		t.Fatalf("error = %v, want ErrCorruptResult", err)
	}
}

func TestRetryNeverRetriesCancellation(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 100, err: errors.New("x")}
	r := fastRetry(b, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Predict(ctx, r, resTensor(1), 0, 0.5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want Canceled", err)
	}
	if b.calls != 0 {
		t.Fatalf("backend attempted %d times under a dead context", b.calls)
	}

	// A backend surfacing the caller's cancellation mid-call is also not
	// retried.
	b2 := &flakyBackend{dets: healthyDets(), failures: 100, err: context.Canceled}
	r2 := fastRetry(b2, 5)
	_, err = Predict(context.Background(), r2, resTensor(1), 0, 0.5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want Canceled", err)
	}
	if b2.calls != 1 {
		t.Fatalf("backend attempted %d times on a cancellation error, want 1", b2.calls)
	}
}

func TestRetryBatchSeam(t *testing.T) {
	b := &flakyBackend{dets: healthyDets(), failures: 1, err: errors.New("transient")}
	r := fastRetry(b, 0)
	out, err := r.PredictBatchCtx(context.Background(), resTensor(3), 0.5)
	if err != nil {
		t.Fatalf("PredictBatchCtx: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("batch: %d items", len(out))
	}
	for i := range out {
		if !sameDets(out[i], healthyDets()) {
			t.Fatalf("item %d differs: %v", i, out[i])
		}
	}
}

func TestFallbackPrimaryOnlyWhenHealthy(t *testing.T) {
	primary := &flakyBackend{name: "primary", dets: healthyDets()}
	secondary := &flakyBackend{name: "secondary", dets: []metrics.Detection{det(0, 0, 1, 1, 0.1)}}
	f := WithFallback(primary, secondary)

	dets, err := Predict(context.Background(), f, resTensor(1), 0, 0.5)
	if err != nil || !sameDets(dets, healthyDets()) {
		t.Fatalf("dets=%v err=%v", dets, err)
	}
	if secondary.calls != 0 {
		t.Fatalf("secondary ran %d times while primary was healthy", secondary.calls)
	}
	if f.Name() != "primary" {
		t.Fatalf("Name = %q", f.Name())
	}
	if st := f.Stats(); st.FellBack != 0 || st.Calls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFallbackServesFromSecondary(t *testing.T) {
	primary := &flakyBackend{name: "primary", dets: healthyDets(), failures: 100, err: errors.New("down")}
	secondary := &flakyBackend{name: "secondary", dets: healthyDets()}
	f := WithFallback(primary, secondary)

	dets, err := Predict(context.Background(), f, resTensor(1), 0, 0.5)
	if err != nil || !sameDets(dets, healthyDets()) {
		t.Fatalf("dets=%v err=%v", dets, err)
	}
	st := f.Stats()
	if st.FellBack != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Backends[0].Failures != 1 || st.Backends[1].Successes != 1 {
		t.Fatalf("backend health = %+v", st.Backends)
	}
}

func TestFallbackAllBackendsFailed(t *testing.T) {
	primary := &flakyBackend{name: "primary", failures: 100, err: errors.New("down")}
	secondary := &flakyBackend{name: "secondary", failures: 100} // panics
	f := WithFallback(primary, secondary)

	_, err := Predict(context.Background(), f, resTensor(1), 0, 0.5)
	if !errors.Is(err, ErrAllBackendsFailed) {
		t.Fatalf("error = %v, want ErrAllBackendsFailed", err)
	}
	if st := f.Stats(); st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerOpensCoolsAndCloses(t *testing.T) {
	primary := &flakyBackend{name: "primary", dets: healthyDets(), failures: 2, err: errors.New("down")}
	secondary := &flakyBackend{name: "secondary", dets: healthyDets()}
	f := breakerChain(2, 3, primary, secondary)
	x := resTensor(1)
	call := func() {
		t.Helper()
		if _, err := Predict(context.Background(), f, x, 0, 0.5); err != nil {
			t.Fatalf("chain call failed: %v", err)
		}
	}

	// Calls 1-2 fail on primary (served by secondary) and open the breaker.
	call()
	call()
	st := f.Stats()
	if !st.Backends[0].Open || st.Backends[0].Tripped != 1 {
		t.Fatalf("breaker should be open after 2 consecutive failures: %+v", st.Backends[0])
	}

	// Calls 3-5 sit out the cooldown: primary must not run at all.
	before := primary.calls
	call()
	call()
	call()
	if primary.calls != before {
		t.Fatalf("primary ran during cooldown")
	}

	// Call 6 is the half-open probe; the backend has healed (failures spent),
	// so the probe succeeds and the breaker closes.
	call()
	st = f.Stats()
	if st.Backends[0].Open {
		t.Fatalf("breaker still open after successful probe: %+v", st.Backends[0])
	}
	if primary.calls != before+1 {
		t.Fatalf("probe should have run primary exactly once, ran %d", primary.calls-before)
	}

	// Call 7 is served by the healthy primary again.
	fellBack := f.Stats().FellBack
	call()
	if f.Stats().FellBack != fellBack {
		t.Fatalf("healthy primary should serve after the breaker closes")
	}
}

func TestBreakerFailedProbeReArmsCooldown(t *testing.T) {
	primary := &flakyBackend{name: "primary", dets: healthyDets(), failures: 100, err: errors.New("down")}
	secondary := &flakyBackend{name: "secondary", dets: healthyDets()}
	f := breakerChain(1, 2, primary, secondary)
	x := resTensor(1)

	// Call 1 opens the breaker; calls 2-3 cool down; call 4 probes and fails.
	for i := 0; i < 4; i++ {
		if _, err := Predict(context.Background(), f, x, 0, 0.5); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	if primary.calls != 2 {
		t.Fatalf("primary ran %d times, want 2 (initial failure + one probe)", primary.calls)
	}
	st := f.Stats()
	if !st.Backends[0].Open {
		t.Fatalf("breaker should stay open after a failed probe")
	}
	// The failed probe re-armed the cooldown: the next 2 calls sit out again.
	for i := 0; i < 2; i++ {
		Predict(context.Background(), f, x, 0, 0.5)
	}
	if primary.calls != 2 {
		t.Fatalf("primary ran during the re-armed cooldown")
	}
}

func TestFallbackAllCircuitBroken(t *testing.T) {
	primary := &flakyBackend{name: "primary", failures: 100, err: errors.New("down")}
	f := breakerChain(1, 10, primary)
	x := resTensor(1)
	Predict(context.Background(), f, x, 0, 0.5) // opens the breaker
	_, err := Predict(context.Background(), f, x, 0, 0.5)
	if !errors.Is(err, ErrAllBackendsFailed) {
		t.Fatalf("error = %v", err)
	}
	if primary.calls != 1 {
		t.Fatalf("primary ran %d times, want 1", primary.calls)
	}
}

func TestFallbackPropagatesCancellation(t *testing.T) {
	primary := &flakyBackend{name: "primary", dets: healthyDets()}
	f := WithFallback(primary)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Predict(ctx, f, resTensor(1), 0, 0.5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v", err)
	}
	if primary.calls != 0 {
		t.Fatalf("primary ran under a dead context")
	}
	// The cancellation is not charged to the backend's health.
	if st := f.Stats(); st.Backends[0].Failures != 0 {
		t.Fatalf("cancellation charged to backend health: %+v", st.Backends[0])
	}
}

func TestFallbackBatchSeam(t *testing.T) {
	primary := &flakyBackend{name: "primary", failures: 100, err: errors.New("down")}
	secondary := &flakyBackend{name: "secondary", dets: healthyDets()}
	f := WithFallback(primary, secondary)
	out, err := f.PredictBatchCtx(context.Background(), resTensor(2), 0.5)
	if err != nil || len(out) != 2 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	for i := range out {
		if !sameDets(out[i], healthyDets()) {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestWithFallbackPanicsOnEmptyChain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for empty chain")
		}
	}()
	WithFallback()
}
