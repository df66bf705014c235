package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool recycles activation tensors across inference calls. Every forward
// pass through a conv/BN/activation stack otherwise allocates the network's
// full activation footprint per screen (tensor.New per layer), which at
// serving rates turns into steady GC pressure. Buffers are bucketed by
// element count rounded up to the next power of two and backed by one
// sync.Pool per bucket, so concurrent inference goroutines draw and return
// buffers without a shared lock.
//
// Get returns a tensor with uninitialised contents: pooled forwards fully
// overwrite their output, so the memset tensor.New pays is skipped. Callers
// that hand a pooled tensor onward own it until they Put it back; a tensor
// that is never Put is simply garbage collected, so forgetting to return a
// buffer is a missed optimisation, not a leak. Putting a tensor that is
// still referenced elsewhere is the one fatal misuse — the next Get may
// hand the same buffer to another goroutine.
//
// Training never pools: backward passes hold references to forward
// activations (Conv2D.lastIn, BatchNorm2D.lastNorm), so recycling them
// between Forward and Backward would corrupt gradients. Inference touches a
// Pool in two places: the convolutions' ForwardPooled and ForwardCancel draw
// their outputs from it, and Walk draws its head maps from it. Walk's
// intermediates recycle through a Scratch the caller names instead.
//
// A nil *Pool is valid everywhere: Get falls back to New and Put is a
// no-op, so callers thread an optional pool through unconditionally.
type Pool struct {
	buckets [maxPoolBucket]poolBucketStore

	// News counts Gets that had to allocate fresh; Gets counts all Gets.
	// Steady state serving should see News flatline while Gets climbs.
	gets atomic.Int64
	news atomic.Int64
}

// poolBucketStore is one size class: a small strongly-held free list in
// front of a sync.Pool overflow. The free list survives garbage collection
// — sync.Pool alone is cleared every GC cycle, which re-allocates the whole
// working set each time and keeps a resident service's allocation rate from
// ever reaching zero. Its fixed depth bounds retained memory to
// maxStrongPerBucket buffers per size class actually in use; everything past
// that spills to the sync.Pool, which scales across Ps and lets the GC
// reclaim genuine excess.
type poolBucketStore struct {
	mu       sync.Mutex
	strong   []*Tensor
	overflow sync.Pool
}

const (
	// maxPoolBucket bounds bucket indices; 1<<34 elements (64 GiB of
	// float32) is far beyond any activation in this codebase.
	maxPoolBucket = 35
	// maxStrongPerBucket is the GC-proof free-list depth per size class —
	// enough for one in-flight forward's worth of same-sized activations.
	maxStrongPerBucket = 4
)

// get pops a recycled tensor, preferring the GC-proof free list.
func (s *poolBucketStore) get() *Tensor {
	s.mu.Lock()
	if n := len(s.strong); n > 0 {
		t := s.strong[n-1]
		s.strong[n-1] = nil
		s.strong = s.strong[:n-1]
		s.mu.Unlock()
		return t
	}
	s.mu.Unlock()
	if v := s.overflow.Get(); v != nil {
		return v.(*Tensor)
	}
	return nil
}

// put parks a tensor, preferring the GC-proof free list.
func (s *poolBucketStore) put(t *Tensor) {
	s.mu.Lock()
	if len(s.strong) < maxStrongPerBucket {
		s.strong = append(s.strong, t)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.overflow.Put(t)
}

// NewPool returns an empty pool. The zero value is also ready to use; the
// constructor exists for call-site clarity.
func NewPool() *Pool { return &Pool{} }

// poolBucket returns the smallest b with 1<<b >= n.
func poolBucket(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a tensor of the given shape, recycling a pooled buffer when
// one is available. Contents are NOT zeroed — the caller must fully
// overwrite Data. A nil pool allocates via New (which zeroes).
func (p *Pool) Get(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return New(shape...) // let New's validation panic with its message
		}
		n *= d
	}
	b := poolBucket(n)
	if b >= maxPoolBucket {
		return New(shape...)
	}
	p.gets.Add(1)
	if t := p.buckets[b].get(); t != nil {
		t.Shape = append(t.Shape[:0], shape...)
		t.Data = t.Data[:n]
		return t
	}
	p.news.Add(1)
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n, 1<<b)}
}

// Put returns a tensor to the pool for reuse. Tensors tracking gradients
// are refused (they belong to training, which never pools); nil pools and
// nil or empty tensors are no-ops. The caller must not touch t afterwards.
func (p *Pool) Put(t *Tensor) {
	if p == nil || t == nil || t.Grad != nil || cap(t.Data) == 0 {
		return
	}
	// Bucket by capacity (floor power of two): every request served from
	// bucket b needs at most 1<<b elements, which this buffer can hold.
	b := bits.Len(uint(cap(t.Data))) - 1
	if b >= maxPoolBucket {
		return
	}
	p.buckets[b].put(t)
}

// Stats reports how many Gets the pool served and how many of those had to
// allocate a fresh buffer.
func (p *Pool) Stats() (gets, news int64) {
	if p == nil {
		return 0, 0
	}
	return p.gets.Load(), p.news.Load()
}

// Scratch recycles []T buffers nobody keeps past a call (Walk's
// intermediates, im2col panels, int32 tiles), one sync.Pool per
// power-of-two capacity class: one bucket thrashed when layers of different
// sizes alternated. Not zeroed.
type Scratch[T any] [33]sync.Pool

// Get returns a buffer of length n.
func (s *Scratch[T]) Get(n int) *[]T {
	c := poolBucket(max(n, 1))
	if v := s[c].Get(); v != nil {
		p := v.(*[]T)
		*p = (*p)[:n]
		return p
	}
	b := make([]T, n, 1<<c)
	return &b
}

// Put returns a buffer from Get for reuse.
func (s *Scratch[T]) Put(p *[]T) { s[poolBucket(cap(*p))].Put(p) }
