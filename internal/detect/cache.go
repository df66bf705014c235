package detect

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"sync"

	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Cache memoises inference results keyed on the screenshot's tensor content,
// so an unchanged screen (the common case: debounce fires on cosmetic churn
// that dies outside the model's downsampled view) skips re-inference
// entirely. Eviction is FIFO at the configured capacity.
//
// Internally the key space is partitioned across shards, each with its own
// lock, map and FIFO ring, so concurrent auditors (the serving layer fans
// many devices into one shared cache) do not serialise on a single mutex.
// Small caches stay single-sharded — one shard preserves exact global FIFO
// order, which only matters when capacity is tiny enough for eviction order
// to be observable. Safe for concurrent use.
type Cache struct {
	inner  Detector
	mask   uint64
	shards []cacheShard
}

// cacheShard is one lock domain: a hash map for lookup plus a fixed-size
// ring buffer recording insertion order for FIFO eviction. The ring never
// reallocates (the historical slice-based FIFO leaked its backing array by
// re-slicing on every eviction). The trailing pad keeps hot shard headers on
// separate cache lines when the shard array is walked concurrently.
type cacheShard struct {
	mu      sync.Mutex
	entries map[uint64][]metrics.Detection
	ring    []uint64 // fixed capacity; oldest key at head
	head    int
	count   int
	hits    int
	misses  int
	_       [24]byte
}

const (
	// DefaultCacheCapacity bounds the cache when WithResultCache is given a
	// non-positive capacity.
	DefaultCacheCapacity = 32
	// maxCacheShards caps the shard fan-out; past ~16 lock domains the
	// contention win is gone and the per-shard rings get too small.
	maxCacheShards = 16
	// minShardCapacity is the smallest per-shard ring worth splitting into:
	// below it, sharding trades observable FIFO order for nothing.
	minShardCapacity = 8
)

// WithResultCache wraps d with a content-hash result cache holding up to
// capacity screens. The shard count scales with capacity: caches smaller
// than 2x minShardCapacity stay single-sharded (exact FIFO), larger ones
// split into up to maxCacheShards lock domains.
func WithResultCache(d Detector, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return newCache(d, capacity, capacity/minShardCapacity)
}

// newCache builds a cache of a positive capacity split into shards lock
// domains, the count rounded down to a power of two and clamped to
// [1, min(capacity, maxCacheShards)]. Production derives the count from the
// capacity (WithResultCache); the shard-sweep benchmark sets it directly.
func newCache(d Detector, capacity, shards int) *Cache {
	if shards > maxCacheShards {
		shards = maxCacheShards
	}
	if shards > capacity {
		shards = capacity
	}
	if shards < 1 {
		shards = 1
	}
	// Round down to a power of two so shard selection is a mask, not a mod.
	shards = 1 << (bits.Len(uint(shards)) - 1)
	c := &Cache{inner: d, mask: uint64(shards - 1), shards: make([]cacheShard, shards)}
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := base
		if i < rem {
			cap++
		}
		c.shards[i].entries = make(map[uint64][]metrics.Detection, cap)
		c.shards[i].ring = make([]uint64, cap)
	}
	return c
}

// Name reports the inner backend's name.
func (c *Cache) Name() string { return c.inner.Name() }

// ShardCount reports how many lock domains the cache was split into.
func (c *Cache) ShardCount() int { return len(c.shards) }

// Hits returns how many calls were answered from the cache.
func (c *Cache) Hits() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.hits
		s.mu.Unlock()
	}
	return total
}

// Misses returns how many calls ran the inner detector.
func (c *Cache) Misses() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.misses
		s.mu.Unlock()
	}
	return total
}

// Len returns the number of cached screens.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// PublishStats folds the cache's lifetime hit and miss tallies into rec as
// the count-only stages "cache-hit" and "cache-miss", putting the hit rate
// in the same report the latency stages already feed. Call it once at the
// end of a run; repeated calls re-add the totals. A nil rec is a no-op.
func (c *Cache) PublishStats(rec *perfmodel.Timings) {
	rec.AddItems("cache-hit", c.Hits())
	rec.AddItems("cache-miss", c.Misses())
}

// cacheSeed is fixed so keys are stable within a process run.
var cacheSeed = maphash.MakeSeed()

// itemSpan locates batch item n's pixels in x.Data, refusing a tensor whose
// shape claims pixels its data does not hold.
func itemSpan(x *tensor.Tensor, n int) (lo, hi int, ok bool) {
	if x == nil || len(x.Shape) == 0 {
		return 0, 0, false
	}
	per := 1
	for _, d := range x.Shape[1:] {
		per *= d
	}
	lo, hi = n*per, (n+1)*per
	return lo, hi, lo >= 0 && hi <= len(x.Data)
}

// cacheKey hashes batch item n's pixels plus the threshold. Pixel bits are
// packed into a 4KB stack buffer and flushed to maphash a chunk at a time:
// the historical one-Write-per-float-pair loop spent ~23k hash calls on a
// 46k-float screen, and at fleet scale (a million cache lookups a minute,
// one core) that per-call overhead — not inference — was the bottleneck.
// Keys are process-internal (the seed is fresh each run), so the chunked
// byte stream owes the old one nothing.
func cacheKey(x *tensor.Tensor, n int, confThresh float64) (uint64, bool) {
	lo, hi, ok := itemSpan(x, n)
	if !ok {
		return 0, false
	}
	var h maphash.Hash
	h.SetSeed(cacheSeed)
	var buf [4096]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(confThresh))
	off := 8
	for i := lo; i < hi; i++ {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(x.Data[i]))
		off += 4
		if off == len(buf) {
			h.Write(buf[:])
			off = 0
		}
	}
	if off > 0 {
		h.Write(buf[:off])
	}
	return h.Sum64(), true
}

// shardFor maps a key to its lock domain. maphash output is uniformly
// mixed, so the low bits select shards evenly.
func (c *Cache) shardFor(key uint64) *cacheShard {
	return &c.shards[key&c.mask]
}

// lookup checks one key, counting the hit or miss on its shard. On a hit it
// returns a fresh copy of the memoised slice (the pipeline scales detection
// boxes in place).
func (c *Cache) lookup(key uint64) ([]metrics.Detection, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if dets, hit := s.entries[key]; hit {
		s.hits++
		return append([]metrics.Detection(nil), dets...), true
	}
	s.misses++
	return nil, false
}

// store memoises dets under key (copying the slice), evicting the shard's
// oldest entry when its ring is full. Re-storing a key another call raced in
// is a no-op.
func (c *Cache) store(key uint64, dets []metrics.Detection) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		return
	}
	if len(s.ring) == 0 {
		return
	}
	if s.count == len(s.ring) {
		// Full: the head slot holds the oldest key; overwrite it in place
		// and advance. No allocation, no retained backing array.
		delete(s.entries, s.ring[s.head])
		s.ring[s.head] = key
		s.head = (s.head + 1) % len(s.ring)
	} else {
		s.ring[(s.head+s.count)%len(s.ring)] = key
		s.count++
	}
	s.entries[key] = append([]metrics.Detection(nil), dets...)
}

// cacheMiss is one unique screen the memo could not answer: the batch item
// that carries it and the key its result will be stored under.
type cacheMiss struct {
	item int
	key  uint64
}

// PredictBatchCtx answers hit items from the memo and forwards only the
// compacted miss sub-batch, under ctx, to the inner detector — so an unchanged
// screen skips inference entirely and an audit batch pays only for content
// the cache has not seen. Duplicate screens within one batch are forwarded
// once and fanned back out. Returned slices are fresh copies: the pipeline
// scales detection boxes in place.
//
// Hits() counts items answered from the memo; Misses() counts the rest (an
// in-batch duplicate is a miss, though only its first occurrence reaches the
// backend), so Hits()+Misses() is the number of items looked up. An
// already-dead context is rejected before even hashing the pixels; a hit is
// answered immediately (hits cost microseconds — not worth a cancellation
// point). A failed inner call propagates its error and stores nothing, so
// aborted partial results never poison the memo (misses already counted stay
// counted — the lookup did happen). The bookkeeping is allocated on the first
// miss, so a batch of hits — the fleet's steady state is one-screen hits —
// pays for the result slices and nothing else.
func (c *Cache) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := batchLen(x)
	if n == 0 {
		return nil, nil
	}
	lo, hi, ok := itemSpan(x, n-1)
	if !ok {
		// Malformed batch (the shape claims more pixels than the data
		// holds): bypass the cache entirely.
		return c.inner.PredictBatchCtx(ctx, x, confThresh)
	}
	out := make([][]metrics.Detection, n)
	var misses []cacheMiss // sub-batch row j carries item misses[j].item
	var dups [][2]int      // {item, sub-batch row} of in-batch repeats of a miss
scan:
	for i := range out {
		key, _ := cacheKey(x, i, confThresh)
		for j, m := range misses {
			if m.key == key {
				// In-batch duplicate of a known miss: count it without
				// another lookup.
				c.shardFor(key).addMiss()
				dups = append(dups, [2]int{i, j})
				continue scan
			}
		}
		if dets, hit := c.lookup(key); hit {
			out[i] = dets
			continue
		}
		misses = append(misses, cacheMiss{item: i, key: key})
	}
	if len(misses) == 0 {
		return out, nil
	}
	sub := x
	if len(misses) != n {
		per := hi - lo
		sub = tensor.New(append([]int{len(misses)}, x.Shape[1:]...)...)
		for j, m := range misses {
			copy(sub.Data[j*per:(j+1)*per], x.Data[m.item*per:(m.item+1)*per])
		}
	}
	res, err := c.inner.PredictBatchCtx(ctx, sub, confThresh)
	if err != nil {
		return nil, err
	}
	// The mapping invariant (res[j] belongs to misses[j]) is the whole
	// correctness of miss compaction: a misbehaving backend's nil, short or
	// long answer must be refused, not mapped back — that would panic, or
	// memoise screen A's detections under screen B's key.
	if len(res) != len(misses) {
		return nil, misaligned(len(res), len(misses), "miss items")
	}
	for j, m := range misses {
		c.store(m.key, res[j])
		out[m.item] = res[j]
	}
	for _, d := range dups {
		// Hand a duplicate a copy, like a cache hit would.
		out[d[0]] = append([]metrics.Detection(nil), res[d[1]]...)
	}
	return out, nil
}

// PredictTensor is a shim kept for cmd/darpa-bench, which prices hits and
// misses through this name: PredictBatchCtx with no deadline, item n of the
// answer (nil when the call failed). Nothing else calls it.
func (c *Cache) PredictTensor(x *tensor.Tensor, n int, confThresh float64) []metrics.Detection {
	out, _ := c.PredictBatchCtx(context.Background(), x, confThresh)
	if n < 0 || n >= len(out) {
		return nil
	}
	return out[n]
}

func (s *cacheShard) addMiss() {
	s.mu.Lock()
	s.misses++
	s.mu.Unlock()
}
