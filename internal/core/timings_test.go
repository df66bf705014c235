package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uikit"
)

// poisonMark is the first pixel of the one screen that spoils any forward
// it shares.
const poisonMark = -1

// heldBackend answers one detection per item, refuses any forward holding
// the poison screen, and while shut holds each call until it is reopened,
// signalling entered as a call starts to wait.
type heldBackend struct {
	entered chan struct{}

	mu   sync.Mutex
	gate chan struct{} // nil while open
}

func newHeldBackend() *heldBackend { return &heldBackend{entered: make(chan struct{}, 1)} }

func (h *heldBackend) Name() string { return "held" }

func (h *heldBackend) shut() {
	h.mu.Lock()
	h.gate = make(chan struct{})
	h.mu.Unlock()
}

func (h *heldBackend) open() {
	h.mu.Lock()
	close(h.gate)
	h.gate = nil
	h.mu.Unlock()
}

func (h *heldBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	h.mu.Lock()
	gate := h.gate
	h.mu.Unlock()
	if gate != nil {
		h.entered <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	n, per := x.Shape[0], len(x.Data)/x.Shape[0]
	for i := 0; i < n; i++ {
		if x.Data[i*per] == poisonMark {
			return nil, errors.New("poison screen")
		}
	}
	return make([][]metrics.Detection, n), nil
}

// queuedCtx tells when the request made under it sits in the serving
// stack's queue: the stack asks a request's context for Done once as it
// enqueues the request and again as the caller waits for the answer, so a
// second call comes after the enqueue. An admission verdict comes before it,
// so Stats().Admitted cannot tell.
type queuedCtx struct {
	context.Context
	dones atomic.Int32
}

func (c *queuedCtx) Done() <-chan struct{} {
	c.dones.Add(1)
	return c.Context.Done()
}

func (c *queuedCtx) queued() bool { return c.dones.Load() >= 2 }

// spinUntil yields until cond holds, failing the test after ten seconds.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// TestTimingsHoldOnlyDurations: a Timings recorder holds time and nothing
// else. A real serving stack is driven through a rejection, a shed, a
// poisoned group, a cancelled request and two replicas, then a handset
// through retry, fallback and degraded cycles. Every outcome lands in a
// Stats count; every stage a recorder reports carries latency samples, and
// the serving stack's recorder holds serve-batch alone.
func TestTimingsHoldOnlyDurations(t *testing.T) {
	rec := &perfmodel.Timings{}
	reps := []*heldBackend{newHeldBackend(), newHeldBackend()}
	b := serve.NewReplicated(serve.Options{
		Timings:       rec,
		Tenants:       map[serve.TenantID]serve.TenantConfig{"metered": {Rate: 1e-9}},
		MaxQueueDepth: 3,
	}, reps[0], reps[1])
	defer b.Close()

	screen := func(mark float32) *tensor.Tensor {
		x := tensor.New(1, 1, 2, 2)
		x.Data[0] = mark
		return x
	}
	call := func(ctx context.Context, mark float32) <-chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := b.PredictBatchCtx(ctx, screen(mark), 0.5)
			errc <- err
		}()
		return errc
	}
	bg := context.Background()

	metered := serve.WithTenant(bg, serve.TenantInfo{ID: "metered"})
	if err := <-call(metered, 1); err != nil {
		t.Fatalf("metered tenant's first request: %v", err)
	}
	if err := <-call(metered, 1); !errors.Is(err, serve.ErrRateLimited) {
		t.Fatalf("metered tenant's second request: %v, want ErrRateLimited", err)
	}

	// Hold one request in each replica, then queue a poisoned screen, a
	// healthy one and one whose caller will leave, and wait until all three
	// sit in the queue: it is then at depth, so the next request is shed.
	var answered []<-chan error
	for _, r := range reps {
		r.shut()
	}
	for range reps {
		answered = append(answered, call(bg, 1))
	}
	for _, r := range reps {
		<-r.entered
	}
	poisonedCtx, healthyCtx := &queuedCtx{Context: bg}, &queuedCtx{Context: bg}
	leaving, leave := context.WithCancel(bg)
	leavingCtx := &queuedCtx{Context: leaving}
	poisoned := call(poisonedCtx, poisonMark)
	answered = append(answered, call(healthyCtx, 2))
	left := call(leavingCtx, 3)
	spinUntil(t, "the backlog to be queued", func() bool {
		return poisonedCtx.queued() && healthyCtx.queued() && leavingCtx.queued()
	})
	if err := <-call(bg, 4); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("request at full depth: %v, want ErrOverloaded", err)
	}
	leave()
	if err := <-left; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed caller: %v, want Canceled", err)
	}

	// Replica 0 alone takes the backlog, so the poisoned screen shares a
	// forward with the healthy ones; replica 1 then finishes its own request.
	reps[0].open()
	if err := <-poisoned; err == nil {
		t.Fatal("poisoned screen answered without error")
	}
	reps[1].open()
	for i, errc := range answered {
		if err := <-errc; err != nil {
			t.Fatalf("healthy request %d: %v", i, err)
		}
	}
	b.Close()

	st := b.Stats()
	if st.Rejected != 1 || st.Shed != 1 || st.Poisoned == 0 || st.Failed != 1 || st.Cancelled != 1 {
		t.Fatalf("serve stats = %+v, want one rejection, shed, failure and cancellation and a poisoned group", st)
	}
	if st.Replicas[0].Items == 0 || st.Replicas[1].Items == 0 {
		t.Fatalf("replica ledgers = %+v, want both replicas serving", st.Replicas)
	}
	if stages := rec.Stages(); len(stages) != 1 || stages[0] != "serve-batch" {
		t.Errorf("serving recorder holds %v, want [serve-batch]", stages)
	}
	assertTimed(t, "serve", rec)

	// A handset whose primary always fails: cycles retry it until its breaker
	// opens, then fall back to a backend that fails half the time, or degrade.
	plan := faults.NewPlan(3, faults.Rule{Kind: faults.Error, Rate: 1})
	fallbackPlan := faults.NewPlan(4, faults.Rule{Kind: faults.Error, Rate: 0.5})
	clock := sim.NewClock(7)
	mgr := a11y.NewManager(clock, uikit.NewScreen(384, 640))
	a := app.Launch(clock, mgr, app.Config{Package: "com.chaos.timings", MeanAUIInterval: 5 * time.Second, GenSeed: 9})
	monkey := app.StartMonkey(clock, mgr, "monkey", 2*time.Second)
	retrier := detect.WithRetry(faults.Wrap(&chaosStub{name: "primary"}, plan), 3)
	chain := detect.WithFallback(retrier, faults.Wrap(&chaosStub{name: "fallback"}, fallbackPlan))
	svc := Start(clock, mgr, chain, Config{})
	clock.RunUntil(time.Minute)
	monkey.Stop()
	svc.Stop()
	a.Stop()
	rs, fs, trips := retrier.Stats(), chain.Stats(), 0
	for _, b := range fs.Backends {
		trips += b.Tripped
	}
	if cs := svc.Stats(); rs.Retries == 0 || fs.FellBack == 0 || cs.Degraded == 0 || trips == 0 {
		t.Fatalf("handset stats = %+v, retries %d, fallbacks %+v: want retries, fallbacks, degraded cycles and a breaker trip", cs, rs.Retries, fs)
	}
	for _, name := range svc.Timings().Stages() {
		if !slices.Contains(allStages, name) {
			t.Errorf("handset recorder holds %q, not a pipeline stage", name)
		}
	}
	assertTimed(t, "handset", svc.Timings())
}

// assertTimed fails for any stage in rec that holds no latency samples.
func assertTimed(t *testing.T, who string, rec *perfmodel.Timings) {
	t.Helper()
	snap := rec.Snapshot()
	if len(snap) == 0 {
		t.Errorf("%s recorder is empty", who)
	}
	for name, s := range snap {
		if s.P50() <= 0 {
			t.Errorf("%s stage %q has count %d but p50 %v: a count kept as a latency", who, name, s.Count, s.P50())
		}
	}
}
