package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelWork is the flop-count floor below which convolution forwards
// stay on the calling goroutine: a 1x1 detection head over a coarse grid
// finishes faster inline than the worker pool can hand it out.
const minParallelWork = 1 << 15

// ParallelWorthwhile reports whether work of the given flop count should go
// through ParallelFor at all. Callers use it to construct the task closure
// only on the parallel branch: a closure literal passed to ParallelFor
// escapes, so building it unconditionally heap-allocates once per forward
// even when the serial loop runs — on a single processor that is the entire
// steady-state allocation of a pooled forward.
func ParallelWorthwhile(flops int) bool {
	return flops >= minParallelWork && runtime.GOMAXPROCS(0) > 1
}

// ParallelFor runs f(i) for every i in [0, n) on a bounded worker pool sized
// by GOMAXPROCS, returning when all tasks finish. Tasks are claimed from an
// atomic counter, so uneven task costs balance across workers. Tasks must be
// independent: f sees each index exactly once but in no defined order and
// possibly concurrently. With a single processor (or a single task) the loop
// runs inline on the caller, so serial configurations pay no overhead.
func ParallelFor(n int, f func(int)) {
	ParallelForCancel(nil, n, f)
}

// Aborted reports whether done is closed, without blocking. A nil done is
// never aborted — it is the happy-path sentinel every cancellation-aware hot
// loop branches on, so uncancellable callers pay a single nil check.
func Aborted(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ParallelForCancel is ParallelFor with a cooperative cancellation point
// between tasks: once done closes, workers stop claiming new indices and the
// call returns after in-flight tasks finish. Tasks already started are never
// interrupted — the checkpoint granularity is one task, which for Conv
// means one (batch item, column block) unit. Some indices may never run
// after a cancel, so the caller must treat the output as garbage once it
// observes done closed. A nil done is exactly ParallelFor.
func ParallelForCancel(done <-chan struct{}, n int, f func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if Aborted(done) {
				return
			}
			f(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if Aborted(done) {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
