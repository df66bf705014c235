package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestBatcherOptionDefaults: a zero and a negative MaxBatch must both land on
// the documented default — a misconfigured scheduler should degrade to sane
// batching, not a zero-size batch.
func TestBatcherOptionDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"zero", Options{}},
		{"negative", Options{MaxBatch: -3}},
	} {
		b := NewReplicated(tc.opts, &stubBackend{})
		if b.sched.maxBatch != DefaultMaxBatch {
			t.Errorf("%s: maxBatch = %d, want %d", tc.name, b.sched.maxBatch, DefaultMaxBatch)
		}
		for p, q := range b.sched.queues {
			if got := cap(q); got != 4*DefaultMaxBatch {
				t.Errorf("%s: queue %d cap = %d, want %d", tc.name, p, got, 4*DefaultMaxBatch)
			}
		}
		b.Close()
	}
}

// TestBatcherRejectsDeadContext: an already-cancelled request must be
// answered with its ctx error before touching the queue or the backend.
func TestBatcherRejectsDeadContext(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{}, s)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dets, err := b.PredictTensorCtx(ctx, screen(1), 0, 0.45)
	if !errors.Is(err, context.Canceled) || dets != nil {
		t.Fatalf("dead ctx: dets=%v err=%v, want nil/Canceled", dets, err)
	}
	if s.calls != 0 {
		t.Fatal("dead ctx reached the backend")
	}
	if st := b.Stats(); st.Items != 0 || st.Cancelled != 0 {
		t.Fatalf("dead ctx touched the scheduler: %+v", st)
	}
}

// TestBatcherPrunesCancelledQueued: a request whose context dies while it
// waits in the queue must answer its caller immediately, be pruned at batch
// formation without spending forward compute, and be counted once, in
// Stats.Cancelled.
func TestBatcherPrunesCancelledQueued(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 1}, s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the scheduler behind the gate
		defer wg.Done()
		predict(b, screen(0), 0.45)
	}()
	waitFor(t, func() bool { return s.forwards() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 2)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := b.PredictTensorCtx(ctx, screen(i), 0, 0.45)
			errc <- err
		}(i)
	}
	waitFor(t, func() bool { return b.sched.depth() == 2 }) // both queued behind the gate
	cancel()
	// Both callers return their ctx error without waiting for the gate.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("queued caller err = %v, want Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled caller still waiting on the scheduler")
		}
	}
	close(s.gate)
	wg.Wait()
	b.Close()
	st := b.Stats()
	if st.Cancelled != 2 {
		t.Fatalf("Stats.Cancelled = %d, want 2", st.Cancelled)
	}
	// A pruned request is counted once, as cancelled, never also as served.
	repItems := 0
	for _, r := range st.Replicas {
		repItems += r.Items
	}
	if st.Items != repItems || st.Items+st.Cancelled != 3 {
		t.Fatalf("Stats.Items = %d, replicas answered %d, Cancelled = %d: want Items == replica sum and Items+Cancelled == 3 submitted",
			st.Items, repItems, st.Cancelled)
	}
	// The backend only ever saw the one live request.
	if sizes := s.sizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("backend saw forwards %v, want just [1] — pruned requests cost compute", sizes)
	}
}

// TestBatcherCloseWithCancelledWaiters: Close while cancelled-ctx callers are
// queued must drain cleanly — every caller answered and the dispatcher
// stopped. A leaked dispatcher or an unanswered waiter would hang this test.
func TestBatcherCloseWithCancelledWaiters(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 2}, s)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dets, err := b.PredictTensorCtx(ctx, screen(i), 0, 0.45)
			if err == nil && (len(dets) != 1 || dets[0].B.X != float64(i)) {
				t.Errorf("caller %d: wrong result %v", i, dets)
			}
		}(i)
	}
	waitFor(t, func() bool { return s.forwards() >= 1 })
	cancel()
	wg.Wait() // every caller returns promptly on its dead ctx, gate still held
	close(s.gate)
	b.Close()
}

// TestBatcherDirectBatchCtx: the already-batched ctx entry point honours the
// context and matches the legacy direct path.
func TestBatcherDirectBatchCtx(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{}, s)
	defer b.Close()
	x := screen(3)
	out, err := b.PredictBatchCtx(context.Background(), x, 0.45)
	if err != nil || len(out) != 1 || out[0][0].B.X != 3 {
		t.Fatalf("Background direct batch: %v, err %v", out, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.PredictBatchCtx(ctx, x, 0.45); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-ctx direct batch err = %v, want Canceled", err)
	}
}

// waitFor yields until cond holds; the deadline only turns a hang into a
// failure, no outcome depends on how long anything takes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		runtime.Gosched()
	}
}
