package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPoolGetShapesAndReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(2, 3, 4, 5)
	if len(a.Data) != 120 || len(a.Shape) != 4 || a.Shape[3] != 5 {
		t.Fatalf("Get(2,3,4,5): len=%d shape=%v", len(a.Data), a.Shape)
	}
	p.Put(a)
	// A smaller request from the same power-of-two bucket must reuse the
	// buffer and re-slice it, not allocate afresh. sync.Pool gives no hard
	// guarantee, so loop enough times that steady-state reuse dominates.
	for i := 0; i < 64; i++ {
		b := p.Get(1, 100)
		if len(b.Data) != 100 || b.Shape[0] != 1 || b.Shape[1] != 100 {
			t.Fatalf("iteration %d: len=%d shape=%v", i, len(b.Data), b.Shape)
		}
		p.Put(b)
	}
	gets, news := p.Stats()
	if gets != 65 {
		t.Fatalf("gets = %d, want 65", gets)
	}
	if news > 8 {
		t.Fatalf("pool barely reused buffers: %d fresh allocations in %d gets", news, gets)
	}
}

func TestPoolNilReceiverFallsBack(t *testing.T) {
	var p *Pool
	x := p.Get(2, 2)
	if x == nil || len(x.Data) != 4 {
		t.Fatalf("nil pool Get = %v", x)
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("nil pool must fall back to New, which zeroes")
		}
	}
	p.Put(x) // must not panic
	if gets, news := p.Stats(); gets != 0 || news != 0 {
		t.Fatalf("nil pool stats = %d/%d", gets, news)
	}
}

func TestPoolRefusesGradTensors(t *testing.T) {
	p := NewPool()
	g := NewWithGrad(8)
	p.Put(g) // trainable parameters must never enter the pool
	fresh := p.Get(8)
	if &fresh.Data[0] == &g.Data[0] {
		t.Fatal("pool recycled a gradient-tracking tensor")
	}
}

// TestPoolConcurrentGetPut hammers one pool from many goroutines under
// -race: the serving layer shares a single pool across all inference
// workers.
func TestPoolConcurrentGetPut(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(300)
				x := p.Get(n)
				for j := range x.Data {
					x.Data[j] = float32(j)
				}
				for j := range x.Data {
					if x.Data[j] != float32(j) {
						t.Errorf("buffer shared between goroutines")
						return
					}
				}
				p.Put(x)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestPooledLayerForwardsBitIdentical: the pooled convolution must reproduce
// its Forward(train=false) output exactly, including on a dirty recycled
// buffer.
func TestPooledLayerForwardsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewPool()
	// Poison the pool with a same-bucket buffer full of garbage so a lazy
	// implementation that skips elements is caught.
	poison := p.Get(2, 4, 8, 8)
	poison.Fill(999)
	p.Put(poison)

	x := New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	conv := NewConv2D(rng, 3, 4, 3, 1, 1)
	want := conv.Forward(x, false)
	got := conv.ForwardPooled(x, p)
	if !got.SameShape(want) {
		t.Fatalf("shape %v != %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}
