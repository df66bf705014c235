package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Tests for the layered serving stack: admission (token buckets, shedding,
// the accounting invariant), scheduler (grouping, priority fairness), and
// the replica pool (distribution, private pools, benching), plus the
// Close-vs-submit determinism the facade guarantees.

// panicBackend fails every forward by panicking, so replica health
// accounting sees fully-failed groups.
type panicBackend struct{ calls atomic.Int64 }

func (p *panicBackend) Name() string { return "panicky" }

func (p *panicBackend) PredictBatchCtx(context.Context, *tensor.Tensor, float64) ([][]metrics.Detection, error) {
	p.calls.Add(1)
	panic("replica down")
}

// TestGroupRequests: the extracted batch-formation policy, exercised as a
// pure function — threshold splits, shape splits, order preservation.
func TestGroupRequests(t *testing.T) {
	mk := func(conf float64, shape ...int) request {
		return request{x: tensor.New(shape...), conf: conf}
	}
	batch := []request{
		mk(0.3, 1, 3, 8, 8),
		mk(0.5, 1, 3, 8, 8),
		mk(0.3, 1, 3, 8, 8),
		mk(0.3, 1, 3, 4, 4), // same conf, different shape
		mk(0.5, 1, 3, 8, 8),
	}
	groups := groupRequests(batch)
	sizes := make([]int, len(groups))
	for i, g := range groups {
		sizes[i] = len(g)
	}
	if len(groups) != 3 || sizes[0] != 2 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("group sizes = %v, want [2 2 1]", sizes)
	}
	if groups[0][0].conf != 0.3 || groups[1][0].conf != 0.5 || groups[2][0].x.Shape[2] != 4 {
		t.Fatalf("groups mis-keyed: %v", groups)
	}
	if got := groupRequests(nil); got != nil {
		t.Fatalf("empty batch grouped into %v", got)
	}
}

// TestTokenBucketRefill: the admission bucket must admit the initial burst,
// reject when empty, refill at exactly Rate tokens per second, and cap at
// its capacity max(1, Rate) — pinned against an injected clock, no sleeps.
func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(0, 0)
	adm := newAdmission(
		map[TenantID]TenantConfig{"t": {Rate: 2}},
		0,
		func() time.Time { return now },
	)
	info := TenantInfo{ID: "t"}
	admit := func() bool {
		v, _ := adm.decide(info, 0)
		return v == admitted
	}
	if !admit() || !admit() {
		t.Fatal("initial burst of 2 not admitted")
	}
	if admit() {
		t.Fatal("empty bucket admitted a request")
	}
	now = now.Add(500 * time.Millisecond) // 2/s x 0.5s = exactly 1 token
	if !admit() {
		t.Fatal("refilled token not admitted")
	}
	if admit() {
		t.Fatal("bucket admitted beyond its refill")
	}
	now = now.Add(time.Hour) // refill far beyond capacity: caps at 2
	if !admit() || !admit() {
		t.Fatal("bucket did not refill to its burst capacity")
	}
	if admit() {
		t.Fatal("bucket capacity exceeded max(1, Rate)")
	}
	st := adm.snapshot()
	if st.Offered != 8 || st.Admitted != 5 || st.Rejected != 3 || st.Shed != 0 {
		t.Fatalf("ledger = %+v, want 8 = 5 + 0 + 3", st)
	}
	// An unconfigured tenant rides the default (unlimited) policy.
	if v, _ := adm.decide(TenantInfo{ID: "other"}, 0); v != admitted {
		t.Fatal("default-policy tenant rejected")
	}
}

// TestAdmissionInvariant: under concurrent mixed-tenant load with rate
// limits and shedding both active, every request that reaches admission is
// accounted exactly once — offered == admitted + shed + rejected, globally
// and per tenant.
func TestAdmissionInvariant(t *testing.T) {
	b := NewReplicated(Options{
		MaxBatch:      4,
		MaxQueueDepth: 4,
		Tenants: map[TenantID]TenantConfig{
			"limited": {Rate: 5, Priority: PriorityBatch},
		},
	}, &stubBackend{}, &stubBackend{})
	const (
		workers = 8
		iters   = 40
	)
	var calls atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := TenantID("free")
			if g%2 == 0 {
				id = "limited"
			}
			ctx := WithTenant(context.Background(), TenantInfo{ID: id})
			for i := 0; i < iters; i++ {
				calls.Add(1)
				b.PredictTensorCtx(ctx, screen(g*iters+i), 0, 0.45)
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	st := b.Stats()
	if got := st.Admitted + st.Shed + st.Rejected; st.Offered != got {
		t.Fatalf("offered %d != admitted %d + shed %d + rejected %d", st.Offered, st.Admitted, st.Shed, st.Rejected)
	}
	if st.Offered != int(calls.Load()) {
		t.Fatalf("offered = %d, want every one of the %d submissions", st.Offered, calls.Load())
	}
	var tenantSum TenantStats
	for _, ts := range st.Tenants {
		if ts.Offered != ts.Admitted+ts.Shed+ts.Rejected {
			t.Fatalf("per-tenant ledger broken: %+v", ts)
		}
		tenantSum.Offered += ts.Offered
		tenantSum.Admitted += ts.Admitted
		tenantSum.Shed += ts.Shed
		tenantSum.Rejected += ts.Rejected
	}
	if tenantSum.Offered != st.Offered || tenantSum.Admitted != st.Admitted {
		t.Fatalf("tenant ledgers %+v do not sum to the global %+v", tenantSum, st)
	}
}

// TestRateLimitRejects: a tenant past its bucket gets ErrRateLimited naming
// it, while an unlimited tenant on the same Batcher sails through.
func TestRateLimitRejects(t *testing.T) {
	b := NewReplicated(Options{
		MaxBatch: 1,
		Tenants:  map[TenantID]TenantConfig{"slow": {Rate: 0.001}},
	}, &stubBackend{})
	defer b.Close()
	ctx := WithTenant(context.Background(), TenantInfo{ID: "slow"})
	if _, err := b.PredictTensorCtx(ctx, screen(1), 0, 0.45); err != nil {
		t.Fatalf("burst request rejected: %v", err)
	}
	_, err := b.PredictTensorCtx(ctx, screen(2), 0, 0.45)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-budget err = %v, want ErrRateLimited", err)
	}
	if dets, err := predict(b, screen(3), 0.45), error(nil); err != nil || dets[0].B.X != 3 {
		t.Fatalf("unlimited default tenant blocked: %v %v", dets, err)
	}
}

// TestSheddingOverloaded: once the queues hold MaxQueueDepth requests, new
// arrivals are shed in microseconds with ErrOverloaded — the caller (httpd)
// owns the degraded answer — and counted as Shed, not Admitted.
func TestSheddingOverloaded(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 1, MaxQueueDepth: 1}, s)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			predict(b, screen(i), 0.45)
		}()
	}
	submit(0) // taken by the worker, which parks behind the gate
	waitFor(t, func() bool { return s.forwards() == 1 })
	submit(1) // admitted at depth 0, now waiting in the queue
	waitFor(t, func() bool { return b.sched.depth() == 1 })
	if _, err := b.PredictTensorCtx(context.Background(), screen(9), 0, 0.45); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed err = %v, want ErrOverloaded", err)
	}
	close(s.gate)
	wg.Wait()
	b.Close()
	st := b.Stats()
	if st.Offered != 3 || st.Admitted != 2 || st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("ledger = offered %d admitted %d shed %d rejected %d, want 3/2/1/0",
			st.Offered, st.Admitted, st.Shed, st.Rejected)
	}
}

// TestSchedulerNoStarvation: a batch-priority request must complete while a
// live-priority flood is still running — the fairShare turn guarantees the
// audit tier progresses statistically instead of waiting for quiet.
func TestSchedulerNoStarvation(t *testing.T) {
	b := NewReplicated(Options{MaxBatch: 2}, &stubBackend{})
	defer b.Close()
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for g := 0; g < 4; g++ {
		flood.Add(1)
		go func(g int) {
			defer flood.Done()
			ctx := context.Background() // untagged = live priority
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b.PredictTensorCtx(ctx, screen(g*1000+i), 0, 0.45)
			}
		}(g)
	}
	auditCtx := WithTenant(context.Background(), TenantInfo{ID: "audit", Priority: PriorityBatch})
	done := make(chan error, 1)
	go func() {
		_, err := b.PredictTensorCtx(auditCtx, screen(42), 0, 0.45)
		done <- err
	}()
	select {
	case err := <-done: // completed while the flood was still live
		if err != nil {
			t.Errorf("audit request failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("batch-priority request starved under live flood")
	}
	close(stop)
	flood.Wait()
}

// TestSchedulerBacklogOrder drives batch formation on the scheduler alone —
// no goroutines, nothing to wait for. On a mixed backlog collect drains the
// live queue before the batch queue and stops at MaxBatch; every fairShare-th
// take still gives the batch tier first refusal while live work is waiting.
func TestSchedulerBacklogOrder(t *testing.T) {
	s := newScheduler(4, 16)
	put := func(p Priority, ids ...int) {
		for _, id := range ids {
			s.queues[p] <- request{conf: float64(id)}
		}
	}
	take := func() request {
		t.Helper()
		r, ok := s.take()
		if !ok {
			t.Fatal("take on open queues reported closed")
		}
		return r
	}
	wantBatch := func(head request, want ...int) {
		t.Helper()
		var got []int
		for _, r := range s.collect(head) {
			got = append(got, int(r.conf))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch = %v, want %v", got, want)
		}
	}
	put(PriorityBatch, 101, 102, 103, 104)
	put(PriorityLive, 1, 2)
	wantBatch(take(), 1, 2, 101, 102) // take 1: live head, live first, batch fills the room

	put(PriorityLive, 3, 4, 5, 6, 7, 8, 9)
	if a, b := take(), take(); a.conf != 3 || b.conf != 4 { // takes 2 and 3: live preempts batch
		t.Fatalf("takes 2, 3 = %v, %v, want live 3, 4", a.conf, b.conf)
	}
	wantBatch(take(), 103, 5, 6, 7) // take 4: the fairness turn, though live is waiting
	wantBatch(take(), 8, 9, 104)    // the remainder rides the next batch
	if d := s.depth(); d != 0 {
		t.Fatalf("depth = %d after the backlog drained", d)
	}
}

// TestBacklogSplitAcrossReplicas: a backlog of 2 x MaxBatch behind two busy
// replicas is split between them, one full batch each; the first worker
// free cannot hoard beyond MaxBatch. The gate hands out one forward per
// token, so each worker parks again on the batch it formed.
func TestBacklogSplitAcrossReplicas(t *testing.T) {
	gate := make(chan struct{})
	r0, r1 := &stubBackend{gate: gate}, &stubBackend{gate: gate}
	b := NewReplicated(Options{MaxBatch: 4}, r0, r1)
	const n = 8
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, n)
	go predict(b, screen(100), 0.45) // one plug per replica, one at a time
	waitFor(t, func() bool { return r0.forwards()+r1.forwards() == 1 })
	go predict(b, screen(101), 0.45)
	waitFor(t, func() bool { return r0.forwards() == 1 && r1.forwards() == 1 })
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = predict(b, screen(i), 0.45) }(i)
	}
	waitFor(t, func() bool { return b.sched.depth() == n })
	gate <- struct{}{} // release the two plugs and nothing else
	gate <- struct{}{}
	waitFor(t, func() bool { return r0.forwards() == 2 && r1.forwards() == 2 })
	if d := b.sched.depth(); d != 0 {
		t.Fatalf("%d requests still queued with both replicas holding a batch", d)
	}
	close(gate)
	wg.Wait()
	b.Close()
	for _, r := range []*stubBackend{r0, r1} {
		if sizes := r.sizes(); !reflect.DeepEqual(sizes, []int{1, 4}) {
			t.Fatalf("replica forwards = %v, want its plug then one batch of 4", sizes)
		}
	}
	for i, dets := range results {
		if len(dets) != 1 || dets[0].B.X != float64(i) {
			t.Fatalf("request %d got the wrong screen's result: %v", i, dets)
		}
	}
}

// TestCloseRaceNoSilentDrop hammers PredictTensorCtx against a concurrent
// Close under -race: every request must be answered — before Close with its
// correct result through the scheduler, after Close with ErrClosed — and
// none may hang or vanish in the window where the queues close.
func TestCloseRaceNoSilentDrop(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := &stubBackend{}
		b := NewReplicated(Options{MaxBatch: 4}, s, s)
		const workers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					id := g*100 + i
					dets, err := b.PredictTensorCtx(context.Background(), screen(id), 0, 0.45)
					if errors.Is(err, ErrClosed) {
						continue
					}
					if err != nil {
						t.Errorf("request %d: err = %v", id, err)
						return
					}
					if len(dets) != 1 || dets[0].B.X != float64(id) {
						t.Errorf("request %d: wrong result %v", id, dets)
						return
					}
				}
			}(g)
		}
		close(start)
		b.Close() // races the in-flight submissions
		wg.Wait()
		// The scheduler is stopped; a fresh submission is refused.
		if _, err := b.PredictBatchCtx(context.Background(), screen(1), 0.45); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-Close submit err = %v, want ErrClosed", err)
		}
		b.Close() // idempotent
	}
}

// TestReplicaPoolDistributes: with both replicas gated, two concurrent
// requests must land on different replicas — the pool genuinely runs
// forwards in parallel — and per-replica ledgers account them.
func TestReplicaPoolDistributes(t *testing.T) {
	gate := make(chan struct{})
	r0 := &stubBackend{gate: gate}
	r1 := &stubBackend{gate: gate}
	b := NewReplicated(Options{MaxBatch: 1}, r0, r1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); predict(b, screen(i), 0.45) }(i)
	}
	waitFor(t, func() bool { return r0.forwards() == 1 && r1.forwards() == 1 })
	close(gate)
	wg.Wait()
	b.Close()
	st := b.Stats()
	if len(st.Replicas) != 2 || st.Replicas[0].Items != 1 || st.Replicas[1].Items != 1 {
		t.Fatalf("replica ledgers = %+v, want one item each", st.Replicas)
	}
}

// TestReplicaPrivatePools: every replica detect.BuildReplicas provisions
// arrives with its own head-map pool, however many replicas the serving
// layer is given.
func TestReplicaPrivatePools(t *testing.T) {
	const n = 3
	reps, err := detect.BuildReplicas("yolite", detect.BuildContext{WeightsDir: "../../weights"}, n)
	if err != nil {
		t.Fatal(err)
	}
	NewReplicated(Options{}, reps...).Close()
	seen := map[*tensor.Pool]bool{}
	for i, r := range reps {
		p := r.(*yolite.Model).Pool
		if p == nil {
			t.Fatalf("replica %d has no activation pool", i)
		}
		if seen[p] {
			t.Fatalf("replica %d shares its activation pool with another replica", i)
		}
		seen[p] = true
	}
}

// TestReplicaBenching: a replica whose forwards fail consecutively is
// benched for a cooldown while its healthy peer keeps serving; the bench
// trip is recorded and traffic keeps being answered throughout.
func TestReplicaBenching(t *testing.T) {
	bad := &panicBackend{}
	good := &stubBackend{}
	b := newReplicated(Options{MaxBatch: 1}, 2, 50*time.Millisecond, bad, good)
	defer b.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		predict(b, screen(1), 0.45) // errors from the bad replica are fine
		benched := false
		for _, r := range b.Stats().Replicas {
			if r.BenchTrips >= 1 {
				benched = true
			}
		}
		if benched {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failing replica never benched: %+v", b.Stats().Replicas)
		}
	}
	// While the bad replica sits out, the healthy one answers everything.
	badCalls := bad.calls.Load()
	for i := 0; i < 5; i++ {
		dets, err := b.PredictTensorCtx(context.Background(), screen(9), 0, 0.45)
		if err != nil || dets[0].B.X != 9 {
			t.Fatalf("request during bench window: dets=%v err=%v", dets, err)
		}
	}
	if bad.calls.Load() != badCalls {
		t.Fatal("benched replica still received traffic")
	}
}

// TestBenchingDisabledSingleReplica: one replica must never bench itself —
// with no peer to absorb the load, benching would stall all traffic.
func TestBenchingDisabledSingleReplica(t *testing.T) {
	b := newReplicated(Options{MaxBatch: 1}, 1, time.Hour, &panicBackend{})
	defer b.Close()
	for i := 0; i < 4; i++ {
		if _, err := b.PredictTensorCtx(context.Background(), screen(i), 0, 0.45); err == nil {
			t.Fatal("panicking backend produced no error")
		}
	}
	if st := b.Stats(); st.Replicas[0].BenchTrips != 0 {
		t.Fatalf("single replica benched itself: %+v", st.Replicas[0])
	}
}

// flakyBackend panics on every third call — enough failure to exercise
// poison isolation and replica health under stress, with plenty of
// successes in between.
type flakyBackend struct {
	stubBackend
	n atomic.Int64
}

func (f *flakyBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	if f.n.Add(1)%3 == 0 {
		panic("flaky")
	}
	return f.stubBackend.PredictBatchCtx(ctx, x, conf)
}

// TestReplicatedChaosCancelStress is the zero-dropped/zero-hung contract
// under the worst mix: two flaky replicas, shedding active, random caller
// cancellation, concurrent Close at the end. Every call must return (result
// or error), the admission ledger must balance, and Close must drain.
func TestReplicatedChaosCancelStress(t *testing.T) {
	b := NewReplicated(Options{
		MaxBatch: 4, MaxQueueDepth: 16,
	}, &flakyBackend{}, &flakyBackend{})
	const (
		workers = 8
		iters   = 50
	)
	var answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			tenant := TenantInfo{ID: TenantID("t" + string(rune('0'+g%3))), Priority: Priority(g % 2)}
			for i := 0; i < iters; i++ {
				ctx := WithTenant(context.Background(), tenant)
				cancel := context.CancelFunc(func() {})
				if rng.Intn(4) == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				b.PredictTensorCtx(ctx, screen(g*iters+i), 0, 0.45)
				answered.Add(1)
				cancel()
			}
		}(g)
	}
	wg.Wait() // a hang here is the failure mode this test exists for
	b.Close()
	if got := answered.Load(); got != workers*iters {
		t.Fatalf("answered %d of %d calls", got, workers*iters)
	}
	st := b.Stats()
	if st.Offered != st.Admitted+st.Shed+st.Rejected {
		t.Fatalf("ledger unbalanced under chaos: %+v", st)
	}
	var repItems int
	for _, r := range st.Replicas {
		repItems += r.Items
	}
	if repItems == 0 {
		t.Fatal("no replica served anything")
	}
}

// TestTieredTenants pins the table darpa-serve and the fleet share: tenant0
// live, every other tenant batch, one rate, identities in index order.
func TestTieredTenants(t *testing.T) {
	table, ids := TieredTenants(3, 5)
	want := []TenantInfo{{ID: "tenant0", Priority: PriorityLive}, {ID: "tenant1", Priority: PriorityBatch}, {ID: "tenant2", Priority: PriorityBatch}}
	if !reflect.DeepEqual(ids, want) || len(table) != len(want) {
		t.Fatalf("ids %v, table %v", ids, table)
	}
	for _, info := range want {
		if cfg := table[info.ID]; cfg != (TenantConfig{Rate: 5, Priority: info.Priority}) {
			t.Fatalf("%s: %+v", info.ID, cfg)
		}
	}
}
