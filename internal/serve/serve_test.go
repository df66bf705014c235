package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/quant"
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

// forwards reports how many forwards the backend has entered, including one
// parked on the gate.
func (s *stubBackend) forwards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// heldBackend parks every forward of the backend it wraps until gate closes,
// so a test can build a backlog behind a backend that has no gate of its own.
type heldBackend struct {
	detect.Detector
	gate    chan struct{}
	entered atomic.Int64
}

func (h *heldBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	h.entered.Add(1)
	<-h.gate
	return h.Detector.PredictBatchCtx(ctx, x, conf)
}

// queueBehind builds a backlog the only way one forms: a plug request parks
// b's worker inside a gated forward (held reports when), start launches n
// callers, and queueBehind returns once all n sit in the queues. The caller
// then opens the gate. Every step waits on the state it needs, never on time.
func queueBehind(t *testing.T, b *Batcher, plug *tensor.Tensor, held func() bool, n int, start func()) {
	t.Helper()
	go predict(b, plug, 0.45)
	waitFor(t, held)
	start()
	waitFor(t, func() bool { return b.sched.depth() == n })
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

// TestBatcherCoalescesToFullBatch: requests that queue while the replica is
// busy ride one forward of MaxBatch, and the remainder rides the next.
func TestBatcherCoalescesToFullBatch(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 4}, s)
	defer b.Close()
	const n = 6
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, n)
	queueBehind(t, b, screen(99), func() bool { return s.forwards() == 1 }, n, func() {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = predict(b, screen(i), 0.45)
			}(i)
		}
	})
	close(s.gate)
	wg.Wait()
	if sizes := s.sizes(); !reflect.DeepEqual(sizes, []int{1, 4, 2}) {
		t.Fatalf("batch sizes = %v, want the plug, then forwards of 4 and 2", sizes)
	}
	for i, dets := range results {
		if len(dets) != 1 || dets[0].B.X != float64(i) {
			t.Fatalf("request %d got the wrong screen's result: %v", i, dets)
		}
	}
	b.Close() // a worker records its batch after answering it; Close waits for that
	st := b.Stats()
	if st.Batches != 3 || st.Items != n+1 || st.MaxBatchSize != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBatcherLoneRequestRunsAtOnce: nothing waits for company. collect on
// empty queues returns a batch of one without blocking (a blocking collect
// hangs this test), and a lone request reaches the backend as [1].
func TestBatcherLoneRequestRunsAtOnce(t *testing.T) {
	if batch := newScheduler(8, 8).collect(request{}); len(batch) != 1 {
		t.Fatalf("collect on empty queues = %d requests, want the head alone", len(batch))
	}
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 8}, s)
	defer b.Close()
	dets := predict(b, screen(7), 0.45)
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
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 4}, s)
	defer b.Close()
	confs := []float64{0.3, 0.5, 0.3, 0.5}
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, 4)
	queueBehind(t, b, screen(99), func() bool { return s.forwards() == 1 }, len(confs), func() {
		for i, conf := range confs {
			wg.Add(1)
			go func(i int, conf float64) {
				defer wg.Done()
				results[i] = predict(b, screen(i), conf)
			}(i, conf)
		}
	})
	close(s.gate)
	wg.Wait()
	if sizes := s.sizes(); !reflect.DeepEqual(sizes, []int{1, 2, 2}) {
		t.Fatalf("batch sizes = %v, want the plug, then [2 2]", sizes)
	}
	for i, dets := range results {
		if dets[0].B.X != float64(i) || dets[0].Score != confs[i] {
			t.Fatalf("request %d answered with wrong screen or threshold: %v", i, dets)
		}
	}
}

// TestBatcherCloseDrainsPending: requests queued behind a gated backend must
// all be answered by Close, and a request after Close is refused with
// ErrClosed without reaching the backend.
func TestBatcherCloseDrainsPending(t *testing.T) {
	s := &stubBackend{gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 2}, s)
	var wg sync.WaitGroup
	results := make([][]metrics.Detection, 6)
	queueBehind(t, b, screen(99), func() bool { return s.forwards() == 1 }, len(results), func() {
		for i := range results {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i] = predict(b, screen(i), 0.45)
			}(i)
		}
	})
	close(s.gate)
	b.Close()
	wg.Wait()
	for i, dets := range results {
		if len(dets) != 1 || dets[0].B.X != float64(i) {
			t.Fatalf("request %d lost across Close: %v", i, dets)
		}
	}
	calls := s.forwards()
	if out, err := b.PredictBatchCtx(context.Background(), screen(9), 0.45); !errors.Is(err, ErrClosed) || out != nil {
		t.Fatalf("post-Close predict = %v, err %v; want ErrClosed", out, err)
	}
	if got := s.forwards(); got != calls {
		t.Fatal("post-Close predict reached the backend")
	}
	b.Close() // idempotent
}

// TestBatcherTimings: the scheduler's stats must land in the shared
// recorder under the serve-batch stage.
func TestBatcherTimings(t *testing.T) {
	rec := &perfmodel.Timings{}
	b := NewReplicated(Options{MaxBatch: 2, Timings: rec}, &stubBackend{})
	predict(b, screen(1), 0.45)
	predict(b, screen(2), 0.45)
	b.Close() // a worker records its batch after answering it; Close waits for that
	if got := rec.Stage("serve-batch").Count; got != 2 {
		t.Fatalf("serve-batch count = %d, want 2", got)
	}
}

// TestBatcherEquivalenceRealModel is the serving layer's correctness
// contract: batched answers must be bit-identical to direct single-screen
// calls on the same model, for the float model and its int8 port.
func TestBatcherEquivalenceRealModel(t *testing.T) {
	m := yolite.NewModel(3)
	m.Pool = tensor.NewPool() // the production stack batches a pooled model
	for _, d := range []directDetector{m, quant.Port(m, nil)} {
		t.Run(d.Name(), func(t *testing.T) { checkBatcherEquivalence(t, d) })
	}
}

// directDetector is a backend with the direct single-screen call the
// batched answers are held to.
type directDetector interface {
	detect.Detector
	PredictTensor(x *tensor.Tensor, n int, conf float64) []metrics.Detection
}

// checkBatcherEquivalence holds four screens behind a plug so they ride one
// forward of four, then serves them freely and through the ctx entry point,
// each answer against d's direct single-screen call.
func checkBatcherEquivalence(t *testing.T, d directDetector) {
	h := &heldBackend{Detector: d, gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 4}, h)
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
		want[i] = d.PredictTensor(xs[i], 0, 0.3)
		total += len(want[i])
	}
	if total == 0 {
		t.Fatal("equivalence test vacuous, no detections produced")
	}
	var wg sync.WaitGroup
	got := make([][]metrics.Detection, screens)
	round := func() {
		for i := range xs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = predict(b, xs[i], 0.3)
			}(i)
		}
	}
	check := func(name string) {
		t.Helper()
		wg.Wait()
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s screen %d: batched %v != direct %v", name, i, got[i], want[i])
			}
		}
	}
	// Held round: all four queue behind a plug and ride one forward of 4.
	queueBehind(t, b, xs[0], func() bool { return h.entered.Load() == 1 }, screens, round)
	close(h.gate)
	check("held round")
	if st := b.Stats(); st.MaxBatchSize != screens {
		t.Fatalf("held round never rode a forward of %d: %+v", screens, st)
	}
	// Free round: the gate is open, batches form as the forwards allow.
	round()
	check("free round")
	// A cancellable per-request context that never fires must not change a
	// bit either: the same screens ride the ctx entry point.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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
	}
	check("ctx round")
	if items := b.Stats().Items; items != 3*screens+1 {
		t.Fatalf("stats items = %d, want %d and the plug", items, 3*screens)
	}
}

// TestBatcherConcurrentStress soaks the scheduler under -race: many
// goroutines, rotating screens and thresholds, over a result cache — the
// full serving stack.
func TestBatcherConcurrentStress(t *testing.T) {
	s := &stubBackend{}
	b := NewReplicated(Options{MaxBatch: 4}, detect.WithResultCache(s, 64))
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
