package httpd

import (
	"bytes"
	"context"
	"errors"
	"image/png"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// frozenAnswer is the one answer a frozenBackend gives, in model-input
// coordinates. It holds no zero and no NaN, so == on it is bit identity.
func frozenAnswer() []metrics.Detection {
	return []metrics.Detection{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 70.25, Y: 12.5, W: 9, H: 9}, Score: 0.9},
		{Class: dataset.ClassAGO, B: geom.BoxF{X: 18, Y: 96.75, W: 60, H: 14}, Score: 0.8},
	}
}

// frozenBackend answers every item of every call with the one slice it
// holds, as the seam allows (detect.Detector: an answer is read-only and may
// be shared). With poison set, a call of several items answers misaligned,
// so a Batcher's grouped forward fails and is re-run item by item. With gate
// set, every call waits for it to close.
type frozenBackend struct {
	dets    []metrics.Detection
	poison  bool
	gate    chan struct{}
	entered atomic.Int64
}

func (f *frozenBackend) Name() string { return "frozen" }

func (f *frozenBackend) PredictBatchCtx(_ context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	f.entered.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	n := x.Shape[0]
	if f.poison && n > 1 {
		return make([][]metrics.Detection, n-1), nil
	}
	out := make([][]metrics.Detection, n)
	for i := range out {
		out[i] = f.dets
	}
	return out, nil
}

// TestNothingWritesIntoAnAnswer holds every caller of the seam to its
// ownership rule: a backend that hands out the same slice on every call
// still holds exactly that slice afterwards, and every caller still gets
// the screen-space answer. Screens are 384x640, four times the model's
// input, so a caller that scaled boxes in place would move the backend's.
func TestNothingWritesIntoAnAnswer(t *testing.T) {
	ctx := context.Background()
	const w, h = 4 * yolite.InputW, 4 * yolite.InputH
	shot := render.NewCanvas(w, h)
	other := render.NewCanvas(w, h)
	other.Fill(other.Bounds(), render.White)
	want := detect.ToScreen(frozenAnswer(), w, h)
	check := func(t *testing.T, got []metrics.Detection, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("answer %+v, want %+v", got, want)
		}
	}
	audit := func(t *testing.T, d detect.Detector, shots ...*render.Canvas) {
		t.Helper()
		out, err := core.AuditScreensCtx(ctx, d, shots, 0.5, len(shots))
		if err != nil || len(out) != len(shots) {
			t.Fatalf("audit: %d answers for %d screens, err %v", len(out), len(shots), err)
		}
		for _, got := range out {
			check(t, got, nil)
		}
	}
	// batched sends n screens through a one-replica Batcher while the
	// replica is held inside the first one's forward, so the others queue
	// and ride one grouped forward. A follower admitted but not yet queued
	// when the gate opens rides a later forward instead, so a round that
	// grouped nothing is run again.
	batched := func(t *testing.T, f *frozenBackend, n int) serve.Stats {
		t.Helper()
		for round := 0; round < 20; round++ {
			f.gate = make(chan struct{})
			f.entered.Store(0)
			b := serve.NewReplicated(serve.Options{MaxBatch: n}, f)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					var got []metrics.Detection
					got, errs[i] = detect.PredictCanvasCtx(ctx, b, shot, w, h, 0.5)
					if errs[i] == nil && !slices.Equal(got, want) {
						errs[i] = errors.New("wrong answer")
					}
				}(i)
				for i == 0 && f.entered.Load() == 0 {
					runtime.Gosched()
				}
			}
			for b.Stats().Admitted < n {
				runtime.Gosched()
			}
			close(f.gate)
			wg.Wait()
			b.Close()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
			if st := b.Stats(); st.MaxBatchSize > 1 {
				return st
			}
		}
		t.Fatal("no round grouped its requests")
		return serve.Stats{}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, f *frozenBackend)
	}{
		{"PredictCanvasCtx", func(t *testing.T, f *frozenBackend) {
			for i := 0; i < 2; i++ {
				got, err := detect.PredictCanvasCtx(ctx, f, shot, w, h, 0.5)
				check(t, got, err)
			}
		}},
		{"AuditScreensCtx", func(t *testing.T, f *frozenBackend) {
			audit(t, f, shot, shot, shot)
		}},
		{"Service", func(t *testing.T, f *frozenBackend) {
			clock := sim.NewClock(1)
			mgr := a11y.NewManager(clock, uikit.NewScreen(w, h))
			s := core.Start(clock, mgr, f, core.Config{})
			var got [][]metrics.Detection
			s.OnAnalysis = func(a core.Analysis) { got = append(got, a.Detections) }
			for i := 0; i < 2; i++ {
				mgr.Emit(a11y.TypeWindowContentChanged, "app")
				clock.RunFor(time.Second)
			}
			s.Stop()
			if len(got) != 2 {
				t.Fatalf("%d analyses, want 2", len(got))
			}
			for _, dets := range got {
				check(t, dets, nil)
			}
		}},
		{"POST /v1/detect", func(t *testing.T, f *frozenBackend) {
			var buf bytes.Buffer
			if err := png.Encode(&buf, shot.Image()); err != nil {
				t.Fatal(err)
			}
			srv := New(Config{Backend: f})
			for i := 0; i < 2; i++ {
				rec, resp := doDetect(t, srv, map[string]string{"Content-Type": "image/png"}, bytes.NewReader(buf.Bytes()))
				if rec.Code != http.StatusOK || len(resp.Detections) != len(want) {
					t.Fatalf("status %d, %d detections", rec.Code, len(resp.Detections))
				}
				if got := resp.Detections[0].Box; got != toWireBox(want[0]) {
					t.Fatalf("first box %+v, want %+v", got, toWireBox(want[0]))
				}
			}
		}},
		{"Cache", func(t *testing.T, f *frozenBackend) {
			c := detect.WithResultCache(f, 8)
			for i := 0; i < 2; i++ { // a miss, then a hit
				got, err := detect.PredictCanvasCtx(ctx, c, shot, w, h, 0.5)
				check(t, got, err)
			}
			audit(t, c, other, other) // a miss and its in-batch duplicate
			if c.Hits() != 1 || c.Misses() != 3 || f.entered.Load() != 2 {
				t.Fatalf("hits %d, misses %d, backend calls %d; want 1, 3, 2", c.Hits(), c.Misses(), f.entered.Load())
			}
		}},
		{"Batcher/coalesced", func(t *testing.T, f *frozenBackend) {
			if st := batched(t, f, 4); st.Poisoned != 0 {
				t.Fatalf("%d poisoned forwards, want none", st.Poisoned)
			}
		}},
		{"Batcher/poison isolation", func(t *testing.T, f *frozenBackend) {
			f.poison = true
			if st := batched(t, f, 4); st.Poisoned == 0 {
				t.Fatal("no grouped forward was re-run item by item")
			}
		}},
		{"faults.Wrap/Corrupt", func(t *testing.T, f *frozenBackend) {
			d := faults.Wrap(f, faults.NewPlan(1, faults.Rule{Kind: faults.Corrupt, Rate: 1}))
			if _, err := detect.PredictCanvasCtx(ctx, d, shot, w, h, 0.5); !errors.Is(err, detect.ErrCorruptResult) {
				t.Fatalf("err %v, want ErrCorruptResult", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &frozenBackend{dets: frozenAnswer()}
			tc.run(t, f)
			if !slices.Equal(f.dets, frozenAnswer()) {
				t.Fatalf("the backend's answer was written into: now %+v, was %+v", f.dets, frozenAnswer())
			}
		})
	}
}
