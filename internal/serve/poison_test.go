package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// poisonPixel marks the one screen that spoils any forward containing it.
const poisonPixel = 66

// poisonBackend fails whole-batch forwards that contain the poison screen —
// by panicking, erroring, returning a misaligned (short) result slice, or
// answering the poison item with a NaN box — while healthy items answer a
// detection encoding their first pixel, so the test can check every result
// reached its own requester.
type poisonBackend struct {
	mode string // "panic", "error", "short", or "corrupt"
}

func (p *poisonBackend) Name() string { return "poison" }

func itemPoisoned(x *tensor.Tensor, n int) bool {
	per := 1
	for _, d := range x.Shape[1:] {
		per *= d
	}
	return x.Data[n*per] == poisonPixel
}

func itemDets(x *tensor.Tensor, n int) []metrics.Detection {
	per := 1
	for _, d := range x.Shape[1:] {
		per *= d
	}
	return []metrics.Detection{{B: geom.BoxF{X: float64(x.Data[n*per]), W: 1, H: 1}, Score: 0.5}}
}

func (p *poisonBackend) PredictBatchCtx(_ context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	n := x.Shape[0]
	for i := 0; i < n; i++ {
		if itemPoisoned(x, i) {
			switch {
			case p.mode == "panic":
				panic("poison screen")
			case p.mode == "error":
				return nil, errors.New("poison screen")
			case p.mode == "short" && n > 1:
				// Only a shared forward is misaligned; on its own the
				// item is servable.
				return make([][]metrics.Detection, n-1), nil
			}
		}
	}
	out := make([][]metrics.Detection, n)
	for i := range out {
		out[i] = itemDets(x, i)
		if p.mode == "corrupt" && itemPoisoned(x, i) {
			out[i][0].B.X = math.NaN()
		}
	}
	return out, nil
}

// screenTensor builds a 1-item tensor whose first pixel is v.
func screenTensor(v float32) *tensor.Tensor {
	x := tensor.New(1, 1, 2, 2)
	x.Data[0] = v
	return x
}

// runPoisonedGroup queues devices requests (one poisoned) behind b's held
// replica h, opens the gate so they ride one grouped forward, and returns
// each request's outcome, indexed so that request i carried pixel i except
// the last, which is the poison screen.
func runPoisonedGroup(t *testing.T, b *Batcher, h *heldBackend, devices int) ([][]metrics.Detection, []error) {
	t.Helper()
	dets := make([][]metrics.Detection, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	queueBehind(t, b, screenTensor(100), func() bool { return h.entered.Load() == 1 }, devices, func() {
		for i := 0; i < devices; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v := float32(i)
				if i == devices-1 {
					v = poisonPixel
				}
				dets[i], errs[i] = b.PredictTensorCtx(context.Background(), screenTensor(v), 0, 0.5)
			}(i)
		}
	})
	close(h.gate)
	wg.Wait()
	return dets, errs
}

// testPoisonIsolation is the shared scenario: whatever way the grouped
// forward fails, the poison item must fail (or be served) alone, every other
// request must still get its own real result, and the dispatcher must
// survive to serve another round. Historically an inner panic here killed
// the dispatcher goroutine, leaving every queued and future caller blocked
// forever — the Close at the end would hang too.
func testPoisonIsolation(t *testing.T, mode string, wantPoisonErr bool) {
	h := &heldBackend{Detector: &poisonBackend{mode: mode}, gate: make(chan struct{})}
	b := NewReplicated(Options{MaxBatch: 4}, h)
	defer b.Close()

	dets, errs := runPoisonedGroup(t, b, h, 4)
	for i := 0; i < 3; i++ {
		if errs[i] != nil {
			t.Errorf("healthy request %d failed: %v", i, errs[i])
			continue
		}
		if len(dets[i]) != 1 || dets[i][0].B.X != float64(i) {
			t.Errorf("request %d got wrong result: %+v", i, dets[i])
		}
	}
	if wantPoisonErr {
		if errs[3] == nil {
			t.Errorf("poison request succeeded with %+v", dets[3])
		}
	} else if errs[3] != nil {
		t.Errorf("poison request should be servable per-item in %s mode: %v", mode, errs[3])
	}

	// The dispatcher survived: a fresh request is still answered.
	fresh, err := b.PredictTensorCtx(context.Background(), screenTensor(7), 0, 0.5)
	if err != nil || len(fresh) != 1 || fresh[0].B.X != 7 {
		t.Fatalf("dispatcher dead after poisoned batch: dets=%v err=%v", fresh, err)
	}

	st := b.Stats()
	if st.Poisoned == 0 {
		t.Errorf("no poisoned forwards recorded: %+v", st)
	}
	wantFailed := 0
	if wantPoisonErr {
		wantFailed = 1
	}
	if st.Failed != wantFailed {
		t.Errorf("Failed = %d, want %d: %+v", st.Failed, wantFailed, st)
	}
}

func TestPoisonPanicIsolated(t *testing.T)      { testPoisonIsolation(t, "panic", true) }
func TestPoisonErrorIsolated(t *testing.T)      { testPoisonIsolation(t, "error", true) }
func TestPoisonShortSliceIsolated(t *testing.T) { testPoisonIsolation(t, "short", false) }

// TestPoisonPanicSingleRequest pins the degenerate group: a single-request
// "batch" that panics must answer that caller with a PanicError instead of
// killing the dispatcher.
func TestPoisonPanicSingleRequest(t *testing.T) {
	backend := &poisonBackend{mode: "panic"}
	b := NewReplicated(Options{MaxBatch: 4}, backend)
	defer b.Close()

	_, err := b.PredictTensorCtx(context.Background(), screenTensor(poisonPixel), 0, 0.5)
	var pe *detect.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error = %v, want *detect.PanicError", err)
	}
	dets, err := b.PredictTensorCtx(context.Background(), screenTensor(3), 0, 0.5)
	if err != nil || len(dets) != 1 || dets[0].B.X != 3 {
		t.Fatalf("dispatcher dead after single-request panic: dets=%v err=%v", dets, err)
	}
}
