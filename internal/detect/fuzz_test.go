package detect

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/tensor"
)

// FuzzCacheKey hammers the cache's content-hash with arbitrary tensor
// shapes, batch indices, thresholds, and raw pixel bytes (NaN and Inf bit
// patterns included). Pinned properties:
//
//   - it never panics, whatever shape/data/index combination arrives (the
//     bounds checks must hold even when the shape product overflows int);
//   - it is deterministic within a process (same input, same key — the
//     invariant the memo depends on);
//   - an item's key depends only on that item's pixels: mutating a
//     different batch item never changes it (the invariant batch miss
//     compaction depends on);
//   - it depends on the item's shape: the same data under transposed dims is
//     a different screen.
func FuzzCacheKey(f *testing.F) {
	f.Add(1, 3, 4, 0, 0.25, []byte{0, 0, 0, 0, 1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff})
	f.Add(2, 2, 2, 1, 0.5, []byte{0x7f, 0xc0, 0, 0, 0x7f, 0x80, 0, 0}) // NaN, +Inf floats
	f.Add(0, 0, 0, 0, 0.0, []byte{})
	f.Add(-1, 5, 7, -3, math.NaN(), []byte{9, 9, 9, 9})
	f.Add(1<<30, 1<<30, 4, 1<<20, 0.25, []byte{1, 2, 3, 4})
	f.Add(1, 96, 160, 0, 0.45, make([]byte, 4*96*160)) // vs 160x96: equal data, different screen

	f.Fuzz(func(t *testing.T, s0, s1, s2, n int, conf float64, raw []byte) {
		if len(raw) > 1<<16 {
			t.Skip("oversized input")
		}
		data := make([]float32, len(raw)/4)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		x := &tensor.Tensor{Shape: []int{s0, s1, s2}, Data: data}

		k1, ok1 := KeyOf(x, n, conf)
		k2, ok2 := KeyOf(x, n, conf)
		if ok1 != ok2 || k1 != k2 {
			t.Fatalf("KeyOf not deterministic: (%v,%v) vs (%v,%v)", k1, ok1, k2, ok2)
		}

		if xt := (&tensor.Tensor{Shape: []int{s0, s2, s1}, Data: data}); ok1 && s1 != s2 {
			if kt, _ := KeyOf(xt, n, conf); kt == k1 {
				t.Fatalf("shapes %v and %v with equal data share key %#x", x.Shape, xt.Shape, k1)
			}
		}

		// Item-independence, checked on shapes small enough to reason about
		// exactly: flip a float of item 1 and re-key item 0.
		per := 4 // 2x2 spatial, one channel
		xs := &tensor.Tensor{Shape: []int{2, 1, 2, 2}, Data: make([]float32, 2*per)}
		for i := range xs.Data {
			if i < len(data) {
				xs.Data[i] = data[i]
			}
		}
		k0, ok := KeyOf(xs, 0, conf)
		if !ok {
			t.Fatalf("well-formed 2-item tensor rejected")
		}
		xs.Data[per] += 1 // item 1's first value
		k0b, _ := KeyOf(xs, 0, conf)
		if k0 != k0b {
			t.Fatalf("item 0's key changed when item 1's pixels did")
		}
	})
}

// FuzzCacheBatchMapping feeds the cache's batch path a backend returning a
// result slice whose length is attacker-controlled, pinning the seam-bug fix:
// a short, long, or nil inner result must surface as an error — never a
// panic, and never results silently memoised under the wrong key.
func FuzzCacheBatchMapping(f *testing.F) {
	f.Add(3, 0, []byte{1, 2, 3})
	f.Add(3, 3, []byte{1, 2, 3})
	f.Add(4, 7, []byte{5, 5, 0, 1})
	f.Add(2, -1, []byte{})

	f.Fuzz(func(t *testing.T, items, resLen int, raw []byte) {
		if items <= 0 || items > 16 || resLen < -1 || resLen > 32 {
			t.Skip()
		}
		x := tensor.New(items, 1, 2, 2)
		for i := range x.Data {
			if len(raw) > 0 {
				x.Data[i] = float32(raw[i%len(raw)]) + float32(i/4)
			} else {
				x.Data[i] = float32(i)
			}
		}
		c := WithResultCache(&arbitraryLenBackend{resLen: resLen}, 8)
		out, err := c.PredictBatchCtx(context.Background(), x, 0.5)
		// The stub honestly answers len(misses) only when resLen says so;
		// anything else must be rejected.
		if err == nil {
			if len(out) != items {
				t.Fatalf("no error but %d results for %d items", len(out), items)
			}
		}
	})
}

// arbitraryLenBackend returns a batch result of a fixed, possibly wrong
// length (-1 means nil).
type arbitraryLenBackend struct{ resLen int }

func (a *arbitraryLenBackend) Name() string { return "arbitrary-len" }

func (a *arbitraryLenBackend) PredictBatchCtx(context.Context, *tensor.Tensor, float64) ([][]metrics.Detection, error) {
	if a.resLen < 0 {
		return nil, nil
	}
	return make([][]metrics.Detection, a.resLen), nil
}
