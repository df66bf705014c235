package serve

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Regression tests for latent serving-layer bugs surfaced while wiring the
// HTTP front end: shed requests must not burn tenant rate budget, and a
// benched replica must not block pool shutdown.

// TestShedRefundsTenantToken: admission consumes a rate token before the
// queue-depth check, so a shed request historically burned budget for work
// never served — under overload a tenant was later 429'd for requests that
// were 503'd. The shed path must refund the token. Pinned with an injected
// clock so refill cannot mask the burn.
func TestShedRefundsTenantToken(t *testing.T) {
	now := time.Unix(0, 0)
	adm := newAdmission(
		map[TenantID]TenantConfig{"t": {Rate: 2}},
		4,
		func() time.Time { return now },
	)
	info := TenantInfo{ID: "t"}

	// Queues at MaxQueueDepth: both requests are shed. The clock never
	// advances, so no refill can restore a burned token.
	for i := 0; i < 2; i++ {
		if v, _ := adm.decide(info, 4); v != shed {
			t.Fatalf("decide at depth 4 = %v, want shed", v)
		}
	}
	// Queues drained: the tenant's burst of 2 must be intact — the shed
	// requests did no work and must not have spent it.
	for i := 0; i < 2; i++ {
		if v, _ := adm.decide(info, 0); v != admitted {
			t.Fatalf("request %d after sheds = %v, want admitted (shed burned rate budget)", i, v)
		}
	}
	// And the bucket is genuinely empty now: exactly the 2 admitted
	// requests spent it, nothing more, nothing less.
	if v, _ := adm.decide(info, 0); v != rejected {
		t.Fatal("bucket should be empty after spending the full burst")
	}
	st := adm.snapshot()
	if st.Offered != 5 || st.Admitted != 2 || st.Shed != 2 || st.Rejected != 1 {
		t.Fatalf("ledger = %+v, want 5 = 2 + 2 + 1", st)
	}
	// The refund must still cap at capacity: shedding a tenant whose bucket is
	// already full cannot mint extra tokens.
	now = now.Add(time.Hour) // refill to capacity
	if v, _ := adm.decide(info, 4); v != shed {
		t.Fatal("full-bucket request at depth not shed")
	}
	for i := 0; i < 2; i++ {
		if v, _ := adm.decide(info, 0); v != admitted {
			t.Fatalf("request %d after capped refund = %v, want admitted", i, v)
		}
	}
	if v, _ := adm.decide(info, 0); v != rejected {
		t.Fatal("refund on a full bucket minted a token beyond capacity")
	}
}

// TestAdmissionStateBoundedByTable: a tenant id is outside input — httpd
// takes it from a request header — and admission used to mint a permanent
// bucket, ledger entry and metrics label for every distinct value. Only the
// operator's table may grow state: 10 000 invented ids share DefaultTenant's
// one entry, stay unlimited at the priority they carry, and the ledger still
// balances globally and per entry.
func TestAdmissionStateBoundedByTable(t *testing.T) {
	table := map[TenantID]TenantConfig{"known": {Rate: 1, Priority: PriorityBatch}}
	adm := newAdmission(table, 0, func() time.Time { return time.Unix(0, 0) })
	const strangers = 10000
	for i := 0; i < strangers; i++ {
		info := TenantInfo{ID: TenantID(fmt.Sprintf("stranger-%d", i)), Priority: Priority(i % 2)}
		if v, prio := adm.decide(info, 0); v != admitted || prio != info.Priority {
			t.Fatalf("stranger %d: verdict %v at priority %v, want admitted at %v", i, v, prio, info.Priority)
		}
	}
	if v, prio := adm.decide(TenantInfo{ID: "known"}, 0); v != admitted || prio != PriorityBatch {
		t.Fatalf("configured tenant: verdict %v at priority %v, want admitted at its table priority", v, prio)
	}
	if v, _ := adm.decide(TenantInfo{ID: "known"}, 0); v != rejected {
		t.Fatalf("configured tenant past its burst: verdict %v, want rejected", v)
	}
	if n := len(adm.tenants); n > len(table)+1 {
		t.Fatalf("admission holds %d tenant states for a table of %d: a request header grows server state", n, len(table))
	}
	st := adm.snapshot()
	if st.Offered != strangers+2 || st.Offered != st.Admitted+st.Shed+st.Rejected {
		t.Fatalf("global ledger = %+v", st)
	}
	if len(st.Tenants) != 2 || st.Tenants[DefaultTenant].Admitted != strangers || st.Tenants["known"].Rejected != 1 {
		t.Fatalf("tenant ledgers = %+v, want the strangers under %q and one entry for the table", st.Tenants, DefaultTenant)
	}
}

// TestCloseWakesBenchedReplica: a benched replica used to sleep out its full
// cooldown through Close, blocking shutdown for up to BenchFor. Close must
// wake it so the pool drains immediately. Run under -race in CI.
func TestCloseWakesBenchedReplica(t *testing.T) {
	benchFor := 30 * time.Second // far beyond the test's tolerance for Close
	p0, p1 := &panicBackend{}, &panicBackend{}
	b := newReplicated(Options{MaxBatch: 2}, 1, benchFor, p0, p1)

	// Two fully-failed groups: each benches whichever replica ran it.
	x := tensor.New(1, 3, 4, 4)
	for i := 0; i < 2; i++ {
		if _, err := b.PredictTensorCtx(context.Background(), x, 0, 0.5); err == nil {
			t.Fatal("panicking backend returned no error")
		}
	}
	// The bench is recorded after the response is delivered; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		trips := 0
		for _, r := range b.Stats().Replicas {
			trips += r.BenchTrips
		}
		if trips >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no replica was benched by fully-failed groups")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	b.Close()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v with a benched replica; want prompt wake (BenchFor=%v)", elapsed, benchFor)
	}
}

// TestSingleReplicaServesPooled: the one-replica stack darpa-serve boots by
// default used to predict with Model.Pool == nil — only multi-replica pools
// were handed a tensor.Pool, and nothing else gave a registry-built model
// one — so every request allocated the network's full activation footprint.
// The model must arrive pooled from detect.BuildReplicas, and once warm,
// further predicts through the serving stack must allocate no new buffers.
func TestSingleReplicaServesPooled(t *testing.T) {
	reps, err := detect.BuildReplicas("yolite", detect.BuildContext{WeightsDir: "../../weights"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := reps[0].(*yolite.Model).Pool
	if pool == nil {
		t.Fatal("a single built replica has no activation pool: the served forward allocates every activation")
	}
	b := NewReplicated(Options{}, reps...)
	defer b.Close()
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	serve := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := b.PredictTensorCtx(context.Background(), x, 0, yolite.DefaultConfThresh); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve(4) // warm-up: the pool fills its size classes
	gets0, news0 := pool.Stats()
	serve(16)
	gets1, news1 := pool.Stats()
	if gets1 == gets0 {
		t.Fatal("served predicts never touched the replica's pool")
	}
	if news1 != news0 {
		t.Fatalf("warm pool allocated %d fresh buffers over 16 predicts, want 0", news1-news0)
	}
}
