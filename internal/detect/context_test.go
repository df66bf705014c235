package detect

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// errStub is a stub whose calls fail with err when it is set. It stands in
// for a backend whose forward was aborted mid-flight.
type errStub struct {
	stubDetector
	err error
}

func (s *errStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.stubDetector.PredictBatchCtx(ctx, x, confThresh)
}

// cancellableCtx returns a context whose Done channel is non-nil but which is
// never cancelled during the test — the shape that exercises the cancellable
// forward paths without aborting them.
func cancellableCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// TestPredictCtxPrechecksDeadContext: an already-cancelled context must never
// start an inference, whatever the backend supports.
func TestPredictCtxPrechecksDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}
	if _, err := Predict(ctx, s, randomBatch(1, 1), 0, 0.45); !errors.Is(err, context.Canceled) {
		t.Fatalf("Predict on dead ctx: err = %v, want Canceled", err)
	}
	if _, err := PredictBatchCtx(ctx, s, randomBatch(2, 1), 0.45); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictBatchCtx on dead ctx: err = %v, want Canceled", err)
	}
	if s.calls != 0 {
		t.Fatalf("dead ctx still reached the backend %d times", s.calls)
	}
}

// TestPredictCtxCancellableEquivalence pins the checkpoints free of
// arithmetic: a context that *can* be cancelled (so every between-layer and
// between-block checkpoint polls a real Done channel) but never is must not
// change a single output bit against Background for either tensor backend,
// pooled, single and batched.
func TestPredictCtxCancellableEquivalence(t *testing.T) {
	plain := yolite.NewModel(3)
	qplain := quant.Port(plain, nil)
	m := yolite.NewModel(3)
	m.Pool = tensor.NewPool()
	qm := quant.Port(m, nil)
	x := randomBatch(4, 42)
	ctx := cancellableCtx(t)
	for _, tc := range []struct {
		name          string
		legacy, under Detector
	}{
		{"yolite", plain, m},
		{"yolite-int8", qplain, qm},
	} {
		total := 0
		for round := 0; round < 2; round++ { // round 2 runs on recycled buffers
			for n := 0; n < 4; n++ {
				want := one(t, tc.legacy, itemOf(x, n), 0.3)
				got, err := Only(tc.under.PredictBatchCtx(ctx, itemOf(x, n), 0.3))
				if err != nil {
					t.Fatalf("%s item %d: err = %v", tc.name, n, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s item %d round %d: cancellable path diverged", tc.name, n, round)
				}
				total += len(want)
			}
			gotB, err := tc.under.PredictBatchCtx(ctx, x, 0.3)
			if err != nil {
				t.Fatalf("%s: batch err = %v", tc.name, err)
			}
			if !reflect.DeepEqual(gotB, batch(t, tc.legacy, x, 0.3)) {
				t.Errorf("%s round %d: cancellable batch path diverged", tc.name, round)
			}
		}
		if total == 0 {
			t.Errorf("%s: equivalence vacuous, no detections produced", tc.name)
		}
	}
}

// TestPredictCtxCancelMidForward: a cancel landing while the conv backbone is
// running must surface as ctx.Err() promptly, and the aborted forwards must
// not corrupt the activation pool — a later clean forward on the same model
// still matches an unpooled reference.
func TestPredictCtxCancelMidForward(t *testing.T) {
	ref := yolite.NewModel(3)
	qref := quant.Port(ref, nil)
	m := yolite.NewModel(3)
	m.Pool = tensor.NewPool()
	qm := quant.Port(m, nil)
	x := randomBatch(1, 7)
	for _, tc := range []struct {
		name          string
		legacy, under Detector
	}{
		{"yolite", ref, m},
		{"yolite-int8", qref, qm},
	} {
		aborted := 0
		for attempt := 0; attempt < 50 && aborted == 0; attempt++ {
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Duration(attempt+1)*100*time.Microsecond, cancel)
			out, err := tc.under.PredictBatchCtx(ctx, x, 0.3)
			timer.Stop()
			cancel()
			if err != nil {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: aborted forward returned %v, want Canceled", tc.name, err)
				}
				if out != nil {
					t.Fatalf("%s: aborted forward returned results %v", tc.name, out)
				}
				aborted++
			}
		}
		if aborted == 0 {
			t.Errorf("%s: no attempt aborted mid-forward", tc.name)
		}
		// Pool integrity after aborts: clean forward still bit-identical.
		got := one(t, tc.under, x, 0.3)
		if want := one(t, tc.legacy, x, 0.3); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: post-abort forward diverged — aborted cycles corrupted the pool", tc.name)
		}
	}
}

// TestMiddlewareCtxPath: a wrapper stack must hand a cancellable context,
// the caller's threshold and a whole batch through to the backend, for one
// screen and for a batch.
func TestMiddlewareCtxPath(t *testing.T) {
	s := &stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}
	d := WithRetry(WithResultCache(s, 8), 0)
	ctx := cancellableCtx(t)
	dets, err := Only(d.PredictBatchCtx(ctx, randomBatch(1, 1), 0.45))
	if err != nil {
		t.Fatalf("single-screen err = %v", err)
	}
	if s.lastThresh != 0.45 || len(dets) != 1 {
		t.Fatalf("ctx path: thresh %v, %d detections, want 0.45 and 1", s.lastThresh, len(dets))
	}
	out, err := d.PredictBatchCtx(ctx, randomBatch(2, 2), 0.45)
	if err != nil {
		t.Fatalf("PredictBatchCtx err = %v", err)
	}
	if len(s.batchSizes) != 2 || s.batchSizes[1] != 2 {
		t.Fatalf("ctx middleware broke the native batch hand-off: %v", s.batchSizes)
	}
	if calls := d.Stats().Calls; len(out) != 2 || calls != 2 {
		t.Fatalf("batch of two answered %d items over %d calls, want 2 and 2", len(out), calls)
	}
}

// TestCacheCtxErrorNotStored: a miss whose inner forward aborts must not
// memoise the error — the next caller gets a real inference, and a later
// success is cached normally.
func TestCacheCtxErrorNotStored(t *testing.T) {
	s := &errStub{stubDetector: stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}, err: context.Canceled}
	c := WithResultCache(s, 8)
	ctx := cancellableCtx(t)
	x := randomBatch(2, 3)
	x0 := itemOf(x, 0)
	if _, err := c.PredictBatchCtx(ctx, x0, 0.45); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if _, err := c.PredictBatchCtx(ctx, x, 0.45); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("aborted results were stored: Len = %d", c.Len())
	}
	// Once the backend succeeds, the same keys memoise as usual.
	s.err = nil
	if _, err := c.PredictBatchCtx(ctx, x0, 0.45); err != nil {
		t.Fatalf("success err = %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len after success = %d, want 1", c.Len())
	}
	hits := c.Hits()
	if _, err := c.PredictBatchCtx(ctx, x0, 0.45); err != nil {
		t.Fatalf("hit err = %v", err)
	}
	if c.Hits() != hits+1 {
		t.Fatalf("repeat ctx lookup did not hit: hits %d -> %d", hits, c.Hits())
	}
}

// TestCacheStatsBeforeTraffic: the observability accessors must be safe on a
// fresh cache — Len 0, zero hits and misses, and a 0/0-guarded HitRate.
func TestCacheStatsBeforeTraffic(t *testing.T) {
	c := WithResultCache(&stubDetector{}, 8)
	if c.Len() != 0 {
		t.Fatalf("fresh cache Len = %d", c.Len())
	}
	if got := c.HitRate(); got != 0 {
		t.Fatalf("fresh cache HitRate = %v, want 0 (no NaN)", got)
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("fresh cache hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	c.PredictTensor(randomBatch(1, 5), 0, 0.45)
	if c.Len() != 1 {
		t.Fatalf("Len after one miss = %d, want 1", c.Len())
	}
}
