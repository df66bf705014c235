package serve

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// stubBackend answers from the screen's first pixel, so each request has a
// distinct correct result and any fan-out mix-up is caught. It records the
// batch sizes and thresholds it was handed, and can be gated to hold the
// scheduler mid-flush. Concurrency-safe.
type stubBackend struct {
	mu         sync.Mutex
	batchSizes []int
	threshes   []float64
	calls      int
	gate       chan struct{} // when non-nil, every forward waits on it
}

func (s *stubBackend) Name() string { return "stub" }

func (s *stubBackend) note(size int, conf float64) {
	s.mu.Lock()
	s.batchSizes = append(s.batchSizes, size)
	s.threshes = append(s.threshes, conf)
	s.calls++
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		<-gate
	}
}

func (s *stubBackend) answer(x *tensor.Tensor, n int, conf float64) []metrics.Detection {
	per := len(x.Data) / x.Shape[0]
	return []metrics.Detection{{
		Class: dataset.ClassUPO,
		B:     geom.BoxF{X: float64(x.Data[n*per]), W: 8, H: 8},
		Score: conf,
	}}
}

func (s *stubBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.note(x.Shape[0], conf)
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = s.answer(x, i, conf)
	}
	return out, ctx.Err()
}

// predict submits one screen with no deadline, dropping the error like the
// callers these tests model.
func predict(b *Batcher, x *tensor.Tensor, conf float64) []metrics.Detection {
	dets, _ := b.PredictTensorCtx(context.Background(), x, 0, conf)
	return dets
}

func (s *stubBackend) sizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.batchSizes...)
}

// screen builds a 1-item tensor whose first pixel carries id.
func screen(id int) *tensor.Tensor {
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	x.Data[0] = float32(id)
	for i := 1; i < len(x.Data); i++ {
		x.Data[i] = float32((id*31 + i) % 255)
	}
	return x
}

// TestBatcherCoalescesToFullBatch: with a generous delay, concurrent
// requests must ride one forward, not four.
func TestBatcherCoalescesToFullBatch(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 4, MaxDelay: time.Second}, s)
	defer b.Close()
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = predict(b, screen(i), 0.45)
		}(i)
	}
	wg.Wait()
	if sizes := s.sizes(); len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("batch sizes = %v, want one forward of 4", sizes)
	}
	for i, dets := range results {
		if len(dets) != 1 || dets[i%1].B.X != float64(i) {
			t.Fatalf("request %d got the wrong screen's result: %v", i, dets)
		}
	}
	st := b.Stats()
	if st.Batches != 1 || st.Items != 4 || st.MaxBatchSize != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatcherFlushesOnMaxDelay: a lone request must not wait for a batch
// that never fills.
func TestBatcherFlushesOnMaxDelay(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}, s)
	defer b.Close()
	start := time.Now()
	dets := predict(b, screen(7), 0.45)
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("lone request waited %v", wait)
	}
	if len(dets) != 1 || dets[0].B.X != 7 {
		t.Fatalf("dets = %v", dets)
	}
	if sizes := s.sizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Fatalf("batch sizes = %v, want [1]", sizes)
	}
}

// TestBatcherGroupsByThreshold: one collection holding two operating
// thresholds must split into two forwards — a batched forward carries a
// single threshold.
func TestBatcherGroupsByThreshold(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 4, MaxDelay: time.Second}, s)
	defer b.Close()
	confs := []float64{0.3, 0.5, 0.3, 0.5}
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, 4)
	for i, conf := range confs {
		wg.Add(1)
		go func(i int, conf float64) {
			defer wg.Done()
			results[i] = predict(b, screen(i), conf)
		}(i, conf)
	}
	wg.Wait()
	sizes := s.sizes()
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("batch sizes = %v, want [2 2]", sizes)
	}
	for i, dets := range results {
		if dets[0].B.X != float64(i) || dets[0].Score != confs[i] {
			t.Fatalf("request %d answered with wrong screen or threshold: %v", i, dets)
		}
	}
}

// TestBatcherCloseDrainsPending: requests queued behind a gated backend must
// all be answered by Close, and post-Close calls degrade to direct
// unbatched inference instead of failing.
func TestBatcherCloseDrainsPending(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 2, MaxDelay: time.Millisecond}, s)
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = predict(b, screen(i), 0.45)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let requests queue behind the gate
	close(s.gate)
	b.Close()
	wg.Wait()
	for i, dets := range results {
		if len(dets) != 1 || dets[0].B.X != float64(i) {
			t.Fatalf("request %d lost across Close: %v", i, dets)
		}
	}
	// After Close the Batcher still serves, directly.
	calls := func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.calls }()
	if dets := predict(b, screen(9), 0.45); dets[0].B.X != 9 {
		t.Fatalf("post-Close predict = %v", dets)
	}
	if got := func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.calls }(); got != calls+1 {
		t.Fatal("post-Close predict did not reach the backend directly")
	}
	b.Close() // idempotent
}

// TestBatcherTimings: the scheduler's stats must land in the shared
// recorder under the serve-batch stage.
func TestBatcherTimings(t *testing.T) {
	rec := &perfmodel.Timings{}
	b := NewReplicated(Options{MaxBatch: 2, MaxDelay: time.Millisecond, Timings: rec}, &stubBackend{})
	predict(b, screen(1), 0.45)
	predict(b, screen(2), 0.45)
	b.Close() // a worker records its batch after answering it; Close waits for that
	if got := rec.Stage("serve-batch").Count; got != 2 {
		t.Fatalf("serve-batch count = %d, want 2", got)
	}
}

// TestBatcherEquivalenceRealModel is the serving layer's correctness
// contract: batched answers must be bit-identical to direct single-screen
// calls on the same model.
func TestBatcherEquivalenceRealModel(t *testing.T) {
	m := yolite.NewModel(3)
	m.Pool = tensor.NewPool() // the production stack batches a pooled model
	b := NewReplicated(Options{MaxBatch: 4, MaxDelay: 10 * time.Millisecond}, m)
	defer b.Close()
	const screens = 4
	want := make([][]metrics.Detection, screens)
	xs := make([]*tensor.Tensor, screens)
	rng := rand.New(rand.NewSource(42))
	total := 0
	for i := range xs {
		xs[i] = tensor.New(1, 3, yolite.InputH, yolite.InputW)
		for j := range xs[i].Data {
			xs[i].Data[j] = rng.Float32()
		}
		want[i] = m.PredictTensor(xs[i], 0, 0.3)
		total += len(want[i])
	}
	if total == 0 {
		t.Fatal("equivalence test vacuous, no detections produced")
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		got := make([][]metrics.Detection, screens)
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = predict(b, xs[i], 0.3)
			}(i)
		}
		wg.Wait()
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d screen %d: batched %v != direct %v", round, i, got[i], want[i])
			}
		}
	}
	// A cancellable per-request context that never fires must not change a
	// bit either: the same screens ride the ctx entry point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make([][]metrics.Detection, screens)
	errs := make([]error, screens)
	for i := range xs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = b.PredictTensorCtx(ctx, xs[i], 0, 0.3)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("ctx round screen %d: err = %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("ctx round screen %d: batched %v != direct %v", i, got[i], want[i])
		}
	}
	if b.Stats().Items != 3*screens {
		t.Fatalf("stats items = %d, want %d", b.Stats().Items, 3*screens)
	}
}

// TestBatcherConcurrentStress soaks the scheduler under -race: many
// goroutines, rotating screens and thresholds, over a sharded cache — the
// full serving stack.
func TestBatcherConcurrentStress(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 4, MaxDelay: 500 * time.Microsecond}, detect.WithResultCache(s, 64))
	defer b.Close()
	const (
		workers = 8
		iters   = 50
		screens = 24
	)
	pool := make([]*tensor.Tensor, screens)
	for id := range pool {
		pool[id] = screen(id)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := rng.Intn(screens)
				conf := []float64{0.3, 0.45}[rng.Intn(2)]
				dets := predict(b, pool[id], conf)
				if len(dets) != 1 || dets[0].B.X != float64(id) || dets[0].Score != conf {
					t.Errorf("screen %d conf %v: %v", id, conf, dets)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if got := b.Stats().Items; got != workers*iters {
		t.Fatalf("scheduler served %d items, want %d", got, workers*iters)
	}
}

// TestBatcherDirectBatchBypassesQueue: an already-batched tensor goes
// straight through.
func TestBatcherDirectBatchBypassesQueue(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{}, s)
	defer b.Close()
	x := tensor.New(3, 3, yolite.InputH, yolite.InputW)
	per := len(x.Data) / 3
	for i := 0; i < 3; i++ {
		x.Data[i*per] = float32(i)
	}
	out, err := b.PredictBatchCtx(context.Background(), x, 0.45)
	if err != nil || len(out) != 3 {
		t.Fatalf("got %d items", len(out))
	}
	for i, dets := range out {
		if dets[0].B.X != float64(i) {
			t.Fatalf("item %d: %v", i, dets)
		}
	}
	if sizes := s.sizes(); len(sizes) != 1 || sizes[0] != 3 {
		t.Fatalf("batch sizes = %v, want [3]", sizes)
	}
	if b.Name() != "stub" {
		t.Fatalf("Name = %q", b.Name())
	}
}
