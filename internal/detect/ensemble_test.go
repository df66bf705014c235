package detect

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// liarBackend returns well-formed but wrong detections — the stand-in for a
// compromised or badly-drifted member whose inventions the vote must reject.
type liarBackend struct{ flakyBackend }

func newLiar() *liarBackend {
	return &liarBackend{flakyBackend{
		name: "liar",
		dets: []metrics.Detection{det(100, 100, 20, 20, 0.99)},
	}}
}

func goodBackend(name string) *flakyBackend {
	return &flakyBackend{name: name, dets: healthyDets()}
}

func TestVoteOutvotesLiar(t *testing.T) {
	e := WithMajorityVote(VoteOptions{}, goodBackend("a"), goodBackend("b"), newLiar())
	dets, err := Predict(context.Background(), e, resTensor(1), 0, 0.5)
	if err != nil {
		t.Fatalf("vote failed: %v", err)
	}
	// Three responders -> quorum 2. The liar's high-score invention has one
	// supporter and is outvoted; the shared detections carry two votes each.
	if !sameDets(dets, healthyDets()) {
		t.Fatalf("vote emitted %v, want %v", dets, healthyDets())
	}
	st := e.Stats()
	if st.Outvoted != 1 {
		t.Fatalf("Outvoted = %d, want 1 (the liar's invention)", st.Outvoted)
	}
	if st.Emitted != len(healthyDets()) {
		t.Fatalf("Emitted = %d, want %d", st.Emitted, len(healthyDets()))
	}
}

func TestVoteRejectsCorruptBackend(t *testing.T) {
	// The corrupt member fails ValidDetections (PR 5's NaN cases): its ballot
	// is discarded before the vote and the failure is charged to its health.
	corrupt := &flakyBackend{name: "corrupt", failures: 1 << 30, corrupt: true}
	e := WithMajorityVote(VoteOptions{}, goodBackend("a"), goodBackend("b"), corrupt)
	dets, err := Predict(context.Background(), e, resTensor(1), 0, 0.5)
	if err != nil {
		t.Fatalf("vote failed: %v", err)
	}
	if !sameDets(dets, healthyDets()) {
		t.Fatalf("vote emitted %v, want %v", dets, healthyDets())
	}
	st := e.Stats()
	if st.Backends[2].Failures != 1 || st.Backends[2].Successes != 0 {
		t.Fatalf("corrupt backend health = %+v, want 1 failure", st.Backends[2])
	}
}

func TestVoteTrippedBreakerDropsBackendWithoutDeadlock(t *testing.T) {
	down := &flakyBackend{name: "down", failures: 1 << 30, err: errors.New("backend down")}
	e := WithMajorityVote(VoteOptions{BreakAfter: 2, Cooldown: 3}, goodBackend("a"), down)
	x := resTensor(1)
	for i := 0; i < 4; i++ {
		dets, err := Predict(context.Background(), e, x, 0, 0.5)
		if err != nil {
			t.Fatalf("call %d failed: %v", i, err)
		}
		// With the second member failing or circuit-broken, the vote degrades
		// to a single-backend passthrough rather than failing closed.
		if !sameDets(dets, healthyDets()) {
			t.Fatalf("call %d emitted %v, want %v", i, dets, healthyDets())
		}
	}
	st := e.Stats()
	if !st.Backends[1].Open || st.Backends[1].Tripped != 1 {
		t.Fatalf("down backend not tripped: %+v", st.Backends[1])
	}
	usesWhenOpen := st.Backends[1].Uses
	// Cooldown=3: three calls sit out, the fourth admits a half-open probe.
	for i := 0; i < 4; i++ {
		if _, err := Predict(context.Background(), e, x, 0, 0.5); err != nil {
			t.Fatalf("cooldown call %d failed: %v", i, err)
		}
	}
	st = e.Stats()
	if st.Backends[1].Uses != usesWhenOpen+1 {
		t.Fatalf("uses went %d -> %d across cooldown, want exactly one half-open probe",
			usesWhenOpen, st.Backends[1].Uses)
	}
	if !st.Backends[1].Open {
		t.Fatalf("failed probe should re-open the breaker: %+v", st.Backends[1])
	}
}

func TestVoteAllFailed(t *testing.T) {
	e := WithMajorityVote(VoteOptions{},
		&flakyBackend{name: "a", failures: 1 << 30, err: errors.New("down")},
		&flakyBackend{name: "b", failures: 1 << 30, err: errors.New("down")})
	if _, err := Predict(context.Background(), e, resTensor(1), 0, 0.5); !errors.Is(err, ErrAllBackendsFailed) {
		t.Fatalf("err = %v, want ErrAllBackendsFailed", err)
	}
	if e.Stats().AllFailed != 1 {
		t.Fatalf("AllFailed = %d, want 1", e.Stats().AllFailed)
	}
}

func TestVoteCancellationChargedToNobody(t *testing.T) {
	good := goodBackend("a")
	e := WithMajorityVote(VoteOptions{}, good, goodBackend("b"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Predict(ctx, e, resTensor(1), 0, 0.5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, b := range e.Stats().Backends {
		if b.Failures != 0 {
			t.Fatalf("cancellation charged to backend health: %+v", b)
		}
	}
}

func TestVoteBatchSeam(t *testing.T) {
	e := WithMajorityVote(VoteOptions{}, goodBackend("a"), goodBackend("b"), newLiar())
	out, err := e.PredictBatchCtx(context.Background(), resTensor(3), 0.5)
	if err != nil {
		t.Fatalf("batch vote failed: %v", err)
	}
	if len(out) != 3 {
		t.Fatalf("batch returned %d items, want 3", len(out))
	}
	for i, dets := range out {
		if !sameDets(dets, healthyDets()) {
			t.Fatalf("item %d emitted %v, want %v", i, dets, healthyDets())
		}
	}
}

// syncBackend serialises a flakyBackend's own bookkeeping so the concurrent
// test races only the ensemble, not the test fake.
type syncBackend struct {
	mu sync.Mutex
	flakyBackend
}

func (s *syncBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flakyBackend.PredictBatchCtx(ctx, x, conf)
}

// TestVoteConcurrent hammers one ensemble from many goroutines — run under
// -race in CI — while one member flaps between failing and serving, so the
// breaker state machine is exercised concurrently with voting.
func TestVoteConcurrent(t *testing.T) {
	flappy := &syncBackend{flakyBackend: flakyBackend{name: "flappy", failures: 20, err: errors.New("warming up"), dets: healthyDets()}}
	e := WithMajorityVote(VoteOptions{BreakAfter: 3, Cooldown: 2},
		&syncBackend{flakyBackend: flakyBackend{name: "a", dets: healthyDets()}},
		&syncBackend{flakyBackend: flakyBackend{name: "b", dets: healthyDets()}},
		flappy)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := resTensor(1)
			for i := 0; i < 25; i++ {
				dets, err := Predict(context.Background(), e, x, 0, 0.5)
				if err != nil {
					t.Errorf("concurrent vote failed: %v", err)
					return
				}
				if !sameDets(dets, healthyDets()) {
					t.Errorf("concurrent vote emitted %v", dets)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.Calls != 8*25 {
		t.Fatalf("Calls = %d, want %d", st.Calls, 8*25)
	}
}

func TestWithMajorityVotePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithMajorityVote with no backends should panic")
		}
	}()
	WithMajorityVote(VoteOptions{})
}
