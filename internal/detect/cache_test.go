package detect

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// contentStub derives its detection from the screen's first pixel, so every
// distinct screen has a distinct correct answer — a cache that crosses wires
// between entries is caught, not just one that loses them. Concurrency-safe.
type contentStub struct {
	calls atomic.Int64
}

func (s *contentStub) Name() string { return "content-stub" }

func (s *contentStub) PredictBatchCtx(_ context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	per := len(x.Data) / x.Shape[0]
	out := make([][]metrics.Detection, x.Shape[0])
	for n := range out {
		s.calls.Add(1)
		out[n] = []metrics.Detection{det(float64(x.Data[n*per]), 0, 8, 8, 0.9)}
	}
	return out, nil
}

// screen builds a 1-item tensor whose first pixel carries id, the value the
// contentStub echoes back.
func screen(id int) *tensor.Tensor {
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	x.Data[0] = float32(id)
	for i := 1; i < len(x.Data); i++ {
		x.Data[i] = float32((id*31 + i) % 255)
	}
	return x
}

// TestCacheRingWrapEviction drives a small cache far past capacity so the
// FIFO ring wraps many times: Len must stay bounded and the freshest entries
// must remain resident. The historical slice-based FIFO never released its
// backing array; the ring's fixed footprint is the fix.
func TestCacheRingWrapEviction(t *testing.T) {
	s := &contentStub{}
	c := WithResultCache(s, 3)
	for id := 0; id < 20; id++ {
		c.PredictTensor(screen(id), 0, 0.45)
		if c.Len() > 3 {
			t.Fatalf("after insert %d: Len=%d exceeds capacity 3", id, c.Len())
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len=%d, want 3", c.Len())
	}
	// The three newest screens must all hit; the evicted ones must miss.
	calls := s.calls.Load()
	for id := 17; id < 20; id++ {
		got := c.PredictTensor(screen(id), 0, 0.45)
		if len(got) != 1 || got[0].B.X != float64(id) {
			t.Fatalf("screen %d: wrong cached result %v", id, got)
		}
	}
	if s.calls.Load() != calls {
		t.Fatal("recent screens were evicted out of FIFO order")
	}
	if c.PredictTensor(screen(0), 0, 0.45); s.calls.Load() != calls+1 {
		t.Fatal("oldest screen should have been evicted")
	}
}

// TestCacheAtCapacityKeepsEveryEntry fills a cache to exactly its capacity and
// verifies every entry is still resident and answers with its own result:
// FIFO is exact, so a cache as large as the working set never evicts.
func TestCacheAtCapacityKeepsEveryEntry(t *testing.T) {
	s := &contentStub{}
	c := WithResultCache(s, 100)
	for id := 0; id < 100; id++ {
		c.PredictTensor(screen(id), 0, 0.45)
	}
	if c.Len() != 100 || c.Misses() != 100 {
		t.Fatalf("Len=%d Misses=%d, want 100/100", c.Len(), c.Misses())
	}
	calls := s.calls.Load()
	for id := 0; id < 100; id++ {
		got := c.PredictTensor(screen(id), 0, 0.45)
		if len(got) != 1 || got[0].B.X != float64(id) {
			t.Fatalf("screen %d: cached result %v", id, got)
		}
	}
	if s.calls.Load() != calls {
		t.Fatalf("resident entries re-ran the backend %d times", s.calls.Load()-calls)
	}
	if c.Hits() != 100 {
		t.Fatalf("Hits=%d, want 100", c.Hits())
	}
	if got := c.HitRate(); got != 0.5 {
		t.Fatalf("HitRate=%v, want 0.5", got)
	}
}

// TestCacheBoundedAtCapacity: the ring must bound the cache at exactly its
// capacity however many distinct screens pass through.
func TestCacheBoundedAtCapacity(t *testing.T) {
	c := WithResultCache(&contentStub{}, 64)
	for id := 0; id < 1000; id++ {
		c.PredictTensor(screen(id), 0, 0.45)
	}
	if c.Len() != 64 {
		t.Fatalf("Len=%d, want full cache of 64", c.Len())
	}
}

// TestHitRateEmptyCache guards the 0/0 division.
func TestHitRateEmptyCache(t *testing.T) {
	if got := WithResultCache(&contentStub{}, 8).HitRate(); got != 0 {
		t.Fatalf("empty cache HitRate=%v", got)
	}
}

// TestCacheConcurrentStress hammers one cache from many goroutines mixing
// single and batch lookups over a rotating working set — the -race soak for
// the one mutex. Every result must match its screen, and the counters must
// reconcile with the total number of lookups.
func TestCacheConcurrentStress(t *testing.T) {
	s := &contentStub{}
	c := WithResultCache(s, 64)
	const (
		workers = 8
		iters   = 60
		screens = 90 // working set larger than capacity: constant eviction
	)
	pool := make([]*tensor.Tensor, screens)
	for id := range pool {
		pool[id] = screen(id)
	}
	var wg sync.WaitGroup
	var lookups atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if i%4 == 3 {
					// Batch of 3 screens, possibly with duplicates.
					ids := []int{rng.Intn(screens), rng.Intn(screens), rng.Intn(screens)}
					x := tensor.New(3, 3, yolite.InputH, yolite.InputW)
					per := len(x.Data) / 3
					for j, id := range ids {
						copy(x.Data[j*per:(j+1)*per], pool[id].Data)
					}
					out, err := c.PredictBatchCtx(context.Background(), x, 0.45)
					if err != nil {
						t.Error(err)
						return
					}
					lookups.Add(3)
					for j, id := range ids {
						if len(out[j]) != 1 || out[j][0].B.X != float64(id) {
							t.Errorf("batch item for screen %d: %v", id, out[j])
							return
						}
					}
					continue
				}
				id := rng.Intn(screens)
				got := c.PredictTensor(pool[id], 0, 0.45)
				lookups.Add(1)
				if len(got) != 1 || got[0].B.X != float64(id) {
					t.Errorf("screen %d: %v", id, got)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("Len=%d exceeds capacity under concurrency", c.Len())
	}
	if got := int64(c.Hits() + c.Misses()); got != lookups.Load() {
		t.Fatalf("hits+misses=%d, lookups=%d", got, lookups.Load())
	}
	if c.Hits() == 0 {
		t.Fatal("stress produced no hits; working set or iteration count is off")
	}
}

// TestOneTableOneKey: the keyed entry (KeyOf, Lookup, Store) and the float
// entry (PredictBatchCtx) are two doors to one table. What one stores the
// other finds, in both directions, and the backend runs once per screen.
func TestOneTableOneKey(t *testing.T) {
	s := &contentStub{}
	c := WithResultCache(s, 8)
	ctx := context.Background()

	// Keyed store, float lookup: the inner detector is never asked.
	x := screen(3)
	key, ok := KeyOf(x, 0, 0.45)
	if !ok {
		t.Fatal("KeyOf rejected a well-formed screen")
	}
	c.Store(key, []metrics.Detection{det(33, 0, 8, 8, 0.9)})
	got, err := Only(c.PredictBatchCtx(ctx, x, 0.45))
	if err != nil || len(got) != 1 || got[0].B.X != 33 || s.calls.Load() != 0 {
		t.Fatalf("float entry missed a keyed store: dets=%v err=%v inner calls=%d", got, err, s.calls.Load())
	}

	// Float miss, keyed lookup: item 1 of a batch, under the key of the
	// same pixels held as a screen of their own.
	batch := tensor.New(2, 3, yolite.InputH, yolite.InputW)
	per := len(batch.Data) / 2
	copy(batch.Data[:per], x.Data)
	copy(batch.Data[per:], screen(4).Data)
	if _, err := c.PredictBatchCtx(ctx, batch, 0.45); err != nil || s.calls.Load() != 1 {
		t.Fatalf("batch of one hit and one miss: err=%v inner calls=%d, want 1", err, s.calls.Load())
	}
	k4, _ := KeyOf(screen(4), 0, 0.45)
	if kb, _ := KeyOf(batch, 1, 0.45); kb != k4 {
		t.Fatal("a screen keys differently as batch item 1 and on its own")
	}
	if got, hit := c.Lookup(k4); !hit || len(got) != 1 || got[0].B.X != 4 {
		t.Fatalf("keyed entry missed a float store: hit=%v dets=%v", hit, got)
	}
	if c.Hits() != 3 || c.Misses() != 1 || c.Len() != 2 {
		t.Fatalf("hits=%d misses=%d len=%d, want 3/1/2: the doors count on one ledger", c.Hits(), c.Misses(), c.Len())
	}
}

// TestBareTableHasNoBackend: NewCache is the table alone. Its keyed entry
// works, and it is not a Detector, so it cannot be asked for a screen it
// would have no backend to run.
func TestBareTableHasNoBackend(t *testing.T) {
	c := NewCache(4)
	if _, ok := any(c).(Detector); ok {
		t.Fatal("a bare table satisfies the detector seam")
	}
	key, _ := KeyOf(screen(9), 0, 0.45)
	if _, hit := c.Lookup(key); hit {
		t.Fatal("an empty table answered a lookup")
	}
	c.Store(key, []metrics.Detection{det(9, 0, 8, 8, 0.9)})
	if got, hit := c.Lookup(key); !hit || len(got) != 1 || got[0].B.X != 9 {
		t.Fatalf("stored screen: hit=%v dets=%v", hit, got)
	}
	if c.Hits() != 1 || c.Misses() != 1 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d, want 1/1/1", c.Hits(), c.Misses(), c.Len())
	}
}

// TestCacheKeyThresholdSensitivity: the same pixels under a different
// operating threshold is a different cache entry — thresholds change the
// backend's answer.
func TestCacheKeyThresholdSensitivity(t *testing.T) {
	c := WithResultCache(&contentStub{}, 8)
	x := screen(5)
	c.PredictTensor(x, 0, 0.45)
	c.PredictTensor(x, 0, 0.60)
	if c.Misses() != 2 {
		t.Fatalf("distinct thresholds shared an entry: misses=%d", c.Misses())
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
	// Equal data laid out as 96x160 and as 160x96 are different screens.
	flipped := &tensor.Tensor{Shape: []int{1, 3, yolite.InputW, yolite.InputH}, Data: x.Data}
	c.PredictTensor(flipped, 0, 0.45)
	if c.Misses() != 3 || c.Len() != 3 {
		t.Fatalf("transposed shape shared an entry: misses=%d Len=%d, want 3/3", c.Misses(), c.Len())
	}
}

// BenchmarkCacheKey prices the content hash on a full-size screen — the
// per-lookup floor every cache hit pays. The chunked-write rewrite exists
// because this number, times a million fleet analyses a minute, was the
// fleet simulator's bottleneck.
func BenchmarkCacheKey(b *testing.B) {
	x := screen(7)
	b.SetBytes(int64(4 * len(x.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := KeyOf(x, 0, 0.45); !ok {
			b.Fatal("KeyOf rejected a well-formed screen")
		}
	}
}

// misalignedBatchStub answers a single screen honestly (first pixel echoed
// back, like contentStub) but answers a batch of several with a result slice
// of any length — nil, short, or long — to model an inner backend that
// violates the one-result-per-item contract.
type misalignedBatchStub struct {
	contentStub
	batchLen int // -1: nil slice; otherwise a slice of this length
}

func (s *misalignedBatchStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	if x.Shape[0] == 1 {
		return s.contentStub.PredictBatchCtx(ctx, x, conf)
	}
	s.calls.Add(1)
	if s.batchLen < 0 {
		return nil, nil
	}
	out := make([][]metrics.Detection, s.batchLen)
	for i := range out {
		out[i] = []metrics.Detection{det(-999, 0, 8, 8, 0.9)} // garbage if ever memoised
	}
	return out, nil
}

// TestCacheRejectsMisalignedInnerBatch pins the miss-compaction guard: an
// inner batch that returns a result slice of the wrong length used to be
// mapped blindly back onto the miss items — panicking on a short slice, or
// worse, silently memoising screen A's detections under screen B's key. The
// cache must refuse the whole batch and store nothing, so later honest calls
// still get their own correct answers.
func TestCacheRejectsMisalignedInnerBatch(t *testing.T) {
	for _, tc := range []struct {
		name     string
		batchLen int
	}{
		{"nil", -1},
		{"short", 2},
		{"long", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := &misalignedBatchStub{batchLen: tc.batchLen}
			c := WithResultCache(stub, 32)

			x := tensor.New(3, 3, yolite.InputH, yolite.InputW)
			per := len(x.Data) / 3
			for i := 0; i < 3; i++ {
				copy(x.Data[i*per:(i+1)*per], screen(10+i).Data)
			}
			out, err := c.PredictBatchCtx(context.Background(), x, 0.45)
			if err == nil {
				t.Fatalf("misaligned inner batch accepted: %v", out)
			}
			if !errors.Is(err, ErrMisaligned) {
				t.Fatalf("unexpected error: %v", err)
			}

			// Nothing may have been memoised from the bad batch: honest
			// per-item calls must miss, reach the backend, and echo each
			// screen's own pixel (a crossed wire would answer -999 or a
			// neighbour's id from the cache).
			hitsBefore := c.Hits()
			for i := 0; i < 3; i++ {
				dets, err := Only(c.PredictBatchCtx(context.Background(), screen(10+i), 0.45))
				if err != nil {
					t.Fatalf("honest call %d failed: %v", i, err)
				}
				if len(dets) != 1 || dets[0].B.X != float64(10+i) {
					t.Fatalf("screen %d served a stale/misaligned entry: %+v", 10+i, dets)
				}
			}
			if c.Hits() != hitsBefore {
				t.Fatalf("bad batch left entries behind: hits went %d -> %d", hitsBefore, c.Hits())
			}
		})
	}
}
