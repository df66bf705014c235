package tensor

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		seen := make([]atomic.Int32, n)
		ParallelFor(n, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

// TestAborted pins the happy-path sentinel: a nil done is never aborted, an
// open channel is not aborted, a closed one is.
func TestAborted(t *testing.T) {
	if Aborted(nil) {
		t.Fatal("nil done reported aborted")
	}
	done := make(chan struct{})
	if Aborted(done) {
		t.Fatal("open done reported aborted")
	}
	close(done)
	if !Aborted(done) {
		t.Fatal("closed done not reported aborted")
	}
}

// TestParallelForCancelAbortsEarly: once done closes, workers must stop
// claiming indices — a closed-from-the-start done runs nothing (serial and
// pooled paths both), and a nil done still covers every index.
func TestParallelForCancelAbortsEarly(t *testing.T) {
	done := make(chan struct{})
	close(done)
	prev := runtime.GOMAXPROCS(1) // serial path
	var ran atomic.Int32
	ParallelForCancel(done, 100, func(int) { ran.Add(1) })
	runtime.GOMAXPROCS(4) // worker-pool path
	ParallelForCancel(done, 100, func(int) { ran.Add(1) })
	runtime.GOMAXPROCS(prev)
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d tasks ran under a pre-closed done, want 0", got)
	}
	ParallelForCancel(nil, 100, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 100 {
		t.Fatalf("nil done covered %d indices, want 100", got)
	}

	// Cancelling mid-run: close done from inside a task; the call must still
	// return (no deadlock) having skipped at least the untouched tail.
	var after atomic.Int32
	mid := make(chan struct{})
	var once sync.Once
	ParallelForCancel(mid, 1000, func(i int) {
		if i == 0 {
			once.Do(func() { close(mid) })
			return
		}
		after.Add(1)
	})
	if got := after.Load(); got >= 999 {
		t.Fatalf("cancel mid-run skipped nothing: %d of 999 other tasks ran", got)
	}
}

// TestConvForwardParallelMatchesSerial pins the parallel forward's contract:
// splitting work per (batch item, column block) must be bit-identical to the
// serial loop, because each output keeps its original arithmetic order.
func TestConvForwardParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	conv := NewConv2D(rng, 8, 8, 3, 1, 1)
	x := randInput(rng, 2, 8, 32, 32) // 2*8*32*32*8*9 flops, well above the gate

	prev := runtime.GOMAXPROCS(1)
	serial := conv.Forward(x, false)
	runtime.GOMAXPROCS(4)
	parallel := conv.Forward(x, false)
	runtime.GOMAXPROCS(prev)

	if len(serial.Data) != len(parallel.Data) {
		t.Fatalf("shape mismatch: %v vs %v", serial.Shape, parallel.Shape)
	}
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("output diverges at %d: serial %v, parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
}
