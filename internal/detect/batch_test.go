package detect

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// randomBatch builds an [n, 3, H, W] tensor of deterministic pseudo-random
// screen content, each item distinct.
func randomBatch(n int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(n, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	return x
}

// itemOf copies batch item n out of x as a one-item tensor.
func itemOf(x *tensor.Tensor, n int) *tensor.Tensor {
	per := len(x.Data) / x.Shape[0]
	item := tensor.New(append([]int{1}, x.Shape[1:]...)...)
	copy(item.Data, x.Data[n*per:(n+1)*per])
	return item
}

// TestPredictBatchEquivalence is the batch seam's correctness contract: for
// the float and int8 backends one call over a 4-item batch must return
// exactly what four single-screen calls return, item for item — and a
// cancellable context that never fires must return exactly the same bits as
// Background.
func TestPredictBatchEquivalence(t *testing.T) {
	m := yolite.NewModel(3)
	qm := quant.Port(m, nil)
	x := randomBatch(4, 42)
	for _, tc := range []struct {
		name string
		p    Detector
	}{
		{"yolite", m},
		{"yolite-int8", qm},
	} {
		batched := batch(t, tc.p, x, 0.3)
		if len(batched) != 4 {
			t.Fatalf("%s: PredictBatchCtx returned %d items, want 4", tc.name, len(batched))
		}
		ctxBatched, err := tc.p.PredictBatchCtx(cancellableCtx(t), x, 0.3)
		if err != nil {
			t.Fatalf("%s: PredictBatchCtx(cancellable) err = %v", tc.name, err)
		}
		if !reflect.DeepEqual(ctxBatched, batched) {
			t.Errorf("%s: cancellable batch path diverged from Background", tc.name)
		}
		total := 0
		for n := 0; n < 4; n++ {
			loop := one(t, tc.p, itemOf(x, n), 0.3)
			if !reflect.DeepEqual(batched[n], loop) {
				t.Errorf("%s item %d: batch %v != per-item %v", tc.name, n, batched[n], loop)
			}
			picked, err := Predict(context.Background(), tc.p, x, n, 0.3)
			if err != nil {
				t.Fatalf("%s item %d: Predict(Background) err = %v", tc.name, n, err)
			}
			if !reflect.DeepEqual(picked, loop) {
				t.Errorf("%s item %d: Predict shim %v != per-item %v", tc.name, n, picked, loop)
			}
			total += len(loop)
		}
		if total == 0 {
			t.Errorf("%s: equivalence test vacuous, no detections produced", tc.name)
		}
	}
}

// TestPooledPredictEquivalence: attaching an activation pool must not change
// a single bit of either backend's output — pooled buffers are dirty on Get,
// so any layer that fails to overwrite its output fully shows up here.
func TestPooledPredictEquivalence(t *testing.T) {
	m := yolite.NewModel(3)
	qm := quant.Port(m, nil)
	pm := yolite.NewModel(3)
	pm.Pool = tensor.NewPool()
	pqm := quant.Port(pm, nil)
	x := randomBatch(4, 42)
	for _, tc := range []struct {
		name          string
		plain, pooled Detector
	}{
		{"yolite", m, pm},
		{"yolite-int8", qm, pqm},
	} {
		total := 0
		for round := 0; round < 2; round++ { // round 2 runs on recycled buffers
			for n := 0; n < 4; n++ {
				want := one(t, tc.plain, itemOf(x, n), 0.3)
				got := one(t, tc.pooled, itemOf(x, n), 0.3)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s item %d round %d: pooled %v != plain %v", tc.name, n, round, got, want)
				}
				total += len(want)
			}
			if !reflect.DeepEqual(batch(t, tc.pooled, x, 0.3), batch(t, tc.plain, x, 0.3)) {
				t.Errorf("%s round %d: pooled batch output diverged", tc.name, round)
			}
		}
		if total == 0 {
			t.Errorf("%s: pooled equivalence vacuous, no detections produced", tc.name)
		}
	}
	if gets, _ := pm.Pool.Stats(); gets == 0 {
		t.Fatal("pooled model never drew from its pool")
	}
}

// TestQuantHonoursDisableRefine checks the ablation flag ported from the
// float model actually changes the int8 output, and that Port seeds it.
func TestQuantHonoursDisableRefine(t *testing.T) {
	m := yolite.NewModel(3)
	qm := quant.Port(m, nil)
	x := randomBatch(1, 7)
	with := one(t, qm, x, 0.3)
	qm.DisableRefine = true
	without := one(t, qm, x, 0.3)
	if reflect.DeepEqual(with, without) {
		t.Fatal("DisableRefine had no effect on the int8 backend's detections")
	}
	m.DisableRefine = true
	if !quant.Port(m, nil).DisableRefine {
		t.Fatal("Port should carry the source model's DisableRefine setting")
	}
}

// TestCacheBatchCompactsMisses covers the cache's batch semantics: hits are
// answered from the memo, the miss sub-batch is compacted (including in-batch
// duplicates) before reaching the backend, and every item still gets its
// result.
func TestCacheBatchCompactsMisses(t *testing.T) {
	s := &stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}
	c := WithResultCache(s, 8)

	// Warm the cache with item 1's content as a batch of one.
	x := randomBatch(4, 9)
	per := len(x.Data) / 4
	one(t, c, itemOf(x, 1), 0.45)
	s.batchSizes = nil
	if c.Misses() != 1 {
		t.Fatalf("warmup misses = %d", c.Misses())
	}
	// Make item 3 a duplicate of item 0.
	copy(x.Data[3*per:4*per], x.Data[0:per])

	out := batch(t, c, x, 0.45)
	if len(out) != 4 {
		t.Fatalf("got %d items", len(out))
	}
	for i, dets := range out {
		if len(dets) != 1 {
			t.Fatalf("item %d: %d detections, want 1", i, len(dets))
		}
	}
	// Item 1 hit; items 0, 2, 3 missed; the sub-batch holds only the two
	// unique missing screens (0 and 2).
	if c.Hits() != 1 || c.Misses() != 4 {
		t.Fatalf("hits=%d misses=%d, want 1/4", c.Hits(), c.Misses())
	}
	if len(s.batchSizes) != 1 || s.batchSizes[0] != 2 {
		t.Fatalf("miss sub-batch sizes = %v, want [2]", s.batchSizes)
	}

	// Everything is memoised now: a repeat batch is all hits, no inner call.
	calls := s.calls
	batch(t, c, x, 0.45)
	if s.calls != calls {
		t.Fatalf("fully cached batch still ran the backend")
	}
	if c.Hits() != 5 {
		t.Fatalf("hits after repeat = %d, want 5", c.Hits())
	}
}

// TestConcurrentPredictSharedModel drives single-screen and batch calls on
// one shared model from many goroutines under -race, proving inference is
// read-only: Conv2D.lastIn is only written under train=true, which is what
// makes the parallel batch workers sound.
func TestConcurrentPredictSharedModel(t *testing.T) {
	m := yolite.NewModel(3)
	qm := quant.Port(m, nil)
	x := randomBatch(2, 11)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				var err error
				switch g % 4 {
				case 0:
					_, err = m.PredictBatchCtx(context.Background(), itemOf(x, i), 0.4)
				case 1:
					_, err = m.PredictBatchCtx(context.Background(), x, 0.4)
				case 2:
					_, err = qm.PredictBatchCtx(context.Background(), itemOf(x, i), 0.4)
				default:
					_, err = qm.PredictBatchCtx(context.Background(), x, 0.4)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}
