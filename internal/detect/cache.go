package detect

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// Key names one screen at one threshold: what KeyOf hashes it to. A caller
// that holds a screen for longer than one request (fleet's library) computes
// its Key once and asks a Table with Lookup and Store; a caller that holds
// only floats goes through Cache.PredictBatchCtx, which derives the same Key.
type Key uint64

// Table memoises inference results keyed on the screenshot's tensor content,
// so an unchanged screen (the common case: debounce fires on cosmetic churn
// that dies outside the model's downsampled view) skips re-inference
// entirely. Eviction is exact FIFO at the configured capacity: a table that
// holds as many entries as its caller has distinct screens never evicts. A
// bare Table is not a Detector: its caller keys its own screens (KeyOf,
// Lookup, Store) and runs its own inference on a miss.
//
// One mutex guards everything. Every table in the tree is driven by a single
// goroutine (the fleet's clock, one core.Service, one audit loop), and KeyOf
// — ~95% of a Cache hit — runs outside the lock, so the critical section is
// a map lookup. A stored answer is handed as-is to every hit: it is
// read-only, like every answer at the seam (see Detector). Safe for
// concurrent use.
type Table struct {
	mu      sync.Mutex
	entries map[Key][]metrics.Detection
	// ring records insertion order for eviction, oldest key at head. Its
	// fixed capacity means eviction overwrites in place and never
	// reallocates; len(entries) is the number of occupied slots.
	ring   []Key
	head   int
	hits   int
	misses int
}

// Cache is a Table in front of a detector, for a caller that holds only
// floats: PredictBatchCtx keys each item and forwards the misses to inner.
// It shares its answers the way the Table does.
type Cache struct {
	Table
	inner Detector
}

// NewCache builds a bare result table holding up to capacity screens. A
// non-positive capacity means 32.
func NewCache(capacity int) *Table {
	c := new(Table)
	c.init(capacity)
	return c
}

func (c *Table) init(capacity int) {
	if capacity <= 0 {
		capacity = 32
	}
	c.entries = make(map[Key][]metrics.Detection, capacity)
	c.ring = make([]Key, capacity)
}

// WithResultCache puts a table of the given capacity in front of d.
func WithResultCache(d Detector, capacity int) *Cache {
	c := &Cache{inner: d}
	c.init(capacity)
	return c
}

// Name reports the inner backend's name.
func (c *Cache) Name() string { return c.inner.Name() }

// Hits returns how many lookups were answered from the table.
func (c *Table) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns how many lookups the table could not answer.
func (c *Table) Misses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of stored screens.
func (c *Table) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (c *Table) HitRate() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
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

// KeyOf hashes batch item n's shape and pixels plus the threshold, and is the
// one function that identifies a screen; ok is false for an item x's data does
// not hold. The item dims lead the stream so equal data laid out as 96x160 and
// as 160x96 are different screens. Pixel bits are packed into a 4KB stack
// buffer and flushed to maphash a chunk at a time; that is still 184 KB
// hashed, ~117 µs, per call, so a caller that will meet the screen again
// keeps the Key. Keys are process-internal (the seed is fresh each run), so
// the byte stream owes earlier layouts nothing.
func KeyOf(x *tensor.Tensor, n int, confThresh float64) (Key, bool) {
	lo, hi, ok := itemSpan(x, n)
	if !ok {
		return 0, false
	}
	var h maphash.Hash
	h.SetSeed(cacheSeed)
	var buf [4096]byte
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(confThresh))
	off := 8
	for _, d := range x.Shape[1:] {
		binary.LittleEndian.PutUint64(buf[off:], uint64(d))
		off += 8
		if off == len(buf) {
			h.Write(buf[:])
			off = 0
		}
	}
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
	return Key(h.Sum64()), true
}

// Lookup checks one key, counting the hit or miss. On a hit it returns the
// memoised slice itself.
func (c *Table) Lookup(key Key) ([]metrics.Detection, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dets, hit := c.entries[key]; hit {
		c.hits++
		return dets, true
	}
	c.misses++
	return nil, false
}

// Store memoises dets under key, evicting the oldest entry when the ring is
// full. Re-storing a key another call raced in is a no-op.
func (c *Table) Store(key Key, dets []metrics.Detection) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return
	}
	if n := len(c.entries); n == len(c.ring) {
		// Full: the head slot holds the oldest key; overwrite it in place
		// and advance. No allocation, no retained backing array.
		delete(c.entries, c.ring[c.head])
		c.ring[c.head] = key
		c.head = (c.head + 1) % len(c.ring)
	} else {
		c.ring[n] = key // head stays 0 until the ring first fills
	}
	c.entries[key] = dets
}

// cacheMiss is one unique screen the memo could not answer: the batch item
// that carries it and the key its result will be stored under.
type cacheMiss struct {
	item int
	key  Key
}

// PredictBatchCtx answers hit items from the memo and forwards only the
// compacted miss sub-batch, under ctx, to the inner detector — so an unchanged
// screen skips inference entirely and an audit batch pays only for content
// the cache has not seen. Duplicate screens within one batch are forwarded
// once and fanned back out. A hit, a miss and its duplicates all get the one
// stored slice.
//
// Hits() counts items answered from the memo; Misses() counts the rest (an
// in-batch duplicate is a miss, though only its first occurrence reaches the
// backend), so Hits()+Misses() is the number of items looked up. An
// already-dead context is rejected before even hashing the pixels; a hit is
// answered immediately (hits cost microseconds — not worth a cancellation
// point). The misses reach inner through Guarded; a failed, misaligned or
// corrupt answer propagates its error and stores nothing, so no bad answer
// ever poisons the memo (misses already counted stay counted — the lookup
// did happen). The bookkeeping is allocated on the first miss, so a batch of
// hits pays for the outer result slice and nothing else.
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
		return Guarded(ctx, c.inner, x, confThresh)
	}
	out := make([][]metrics.Detection, n)
	var misses []cacheMiss // sub-batch row j carries item misses[j].item
	var dups [][2]int      // {item, sub-batch row} of in-batch repeats of a miss
scan:
	for i := range out {
		key, _ := KeyOf(x, i, confThresh)
		if dets, hit := c.Lookup(key); hit {
			out[i] = dets
			continue
		}
		for j, m := range misses {
			if m.key == key {
				// In-batch duplicate of a known miss: forwarded once.
				dups = append(dups, [2]int{i, j})
				continue scan
			}
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
	// Guarded holds the mapping invariant (res[j] belongs to misses[j]), the
	// whole correctness of miss compaction: a short or long answer is refused,
	// not mapped back, and so is a corrupt one — the memo stores only answers
	// that passed the seam's check.
	res, err := Guarded(ctx, c.inner, sub, confThresh)
	if err != nil {
		return nil, err
	}
	for j, m := range misses {
		c.Store(m.key, res[j])
		out[m.item] = res[j]
	}
	for _, d := range dups {
		out[d[0]] = res[d[1]]
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
