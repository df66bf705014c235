package detect_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// probe sits beneath a wrapper and counts the calls that reach it, so the
// conformance test can tell "rejected before any inner call" from "rejected
// after the backend already ran".
type probe struct {
	detect.Detector
	calls atomic.Int64
}

func (p *probe) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, conf float64) ([][]metrics.Detection, error) {
	p.calls.Add(1)
	return p.Detector.PredictBatchCtx(ctx, x, conf)
}

// subject is one implementation of the seam under test.
type subject struct {
	d     detect.Detector
	inner *probe       // beneath a wrapper; nil for a bare backend
	pool  *tensor.Pool // the conv backend's activation pool; nil when it has none
	// slot0 marks frauddroid: only batch slot 0 carries the live screen.
	slot0 bool
	// quiesce waits for work the subject may still be doing after a caller
	// left (the serving layer's workers), so the pool can be inspected. It
	// may run x to do so.
	quiesce func(x *tensor.Tensor)
}

// seamScreens renders three distinct dark-pattern screens: the batch every
// subject is run on, and the view hierarchy frauddroid reads for slot 0.
func seamScreens() (*tensor.Tensor, *uikit.Screen, []*dataset.Sample) {
	var samples []*dataset.Sample
	var live *uikit.Screen
	for seed := int64(11); seed < 14; seed++ {
		at := auigen.BuildAttacked(seed, auigen.Knobs{}, auigen.DatasetConfig{})
		samples = append(samples, at.Sample)
		if live == nil {
			live = at.Screen
		}
	}
	return yolite.BatchToTensor(samples), live, samples
}

func itemOf(x *tensor.Tensor, n int) *tensor.Tensor {
	per := len(x.Data) / x.Shape[0]
	item := tensor.New(append([]int{1}, x.Shape[1:]...)...)
	copy(item.Data, x.Data[n*per:(n+1)*per])
	return item
}

// shipped loads the checked-in float weights.
func shipped(t *testing.T) *yolite.Model {
	m := yolite.NewModel(3)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		t.Skipf("no shipped weights: %v", err)
	}
	return m
}

// wrapped builds one wrapper over a probed, pooled float model. Wrappers that
// take several backends get an identical second one from next.
func wrapped(wrap func(inner detect.Detector, next func() detect.Detector) detect.Detector) func(*testing.T) subject {
	return func(t *testing.T) subject {
		m := shipped(t)
		m.Pool = tensor.NewPool()
		p := &probe{Detector: m}
		s := subject{d: wrap(p, func() detect.Detector { return shipped(t) }), inner: p, pool: m.Pool}
		if b, ok := s.d.(*serve.Batcher); ok {
			// The one replica has one worker, which takes a fresh request
			// only once every forward a released caller left behind is done.
			s.quiesce = func(x *tensor.Tensor) {
				if _, err := b.PredictBatchCtx(context.Background(), x, yolite.DefaultConfThresh); err != nil {
					t.Fatal(err)
				}
			}
			t.Cleanup(b.Close)
		}
		return s
	}
}

// registered builds one backend from the registry, the way the binaries do.
func registered(name string, live *uikit.Screen, samples []*dataset.Sample) func(*testing.T) subject {
	return func(t *testing.T) subject {
		if strings.Contains(name, "rcnn") && testing.Short() {
			t.Skip("trains a two-stage baseline")
		}
		d, err := detect.Build(name, detect.BuildContext{
			WeightsDir: "../../weights",
			Samples:    func() []*dataset.Sample { return samples },
			Epochs:     1,
			Screen:     func() *uikit.Screen { return live },
		})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		s := subject{d: d, slot0: name == "frauddroid"}
		if p, ok := d.(interface{ SetPool(*tensor.Pool) }); ok {
			s.pool = tensor.NewPool()
			p.SetPool(s.pool)
		}
		return s
	}
}

// TestSeamConformance holds every registered backend and every wrapper to the
// one contract detect.Detector states, in one table:
//
//   - a batch of three answers with three results, each bit-identical to the
//     same screen run as a batch of one (frauddroid excepted: slot 0 is the
//     live screen, the other slots are empty);
//   - a context that can be cancelled but never is computes what Background
//     computes;
//   - a dead context returns ctx.Err() and nil results before any inner call;
//   - a cancel during the forward returns an error and nil results, and
//     leaves the activation pool whole: the next clean call allocates nothing
//     new and still computes the right answer.
func TestSeamConformance(t *testing.T) {
	x, live, samples := seamScreens()
	type det = detect.Detector
	cases := map[string]func(*testing.T) subject{
		"WithResultCache":     wrapped(func(d det, _ func() det) det { return detect.WithResultCache(d, 64) }),
		"WithRetry":           wrapped(func(d det, _ func() det) det { return detect.WithRetry(d, 0) }),
		"WithFallback":        wrapped(func(d det, next func() det) det { return detect.WithFallback(d, next()) }),
		"faults.Wrap":         wrapped(func(d det, _ func() det) det { return faults.Wrap(d, faults.NewPlan(1)) }),
		"serve.NewReplicated": wrapped(func(d det, _ func() det) det { return serve.NewReplicated(serve.Options{}, d) }),
	}
	for _, name := range detect.Names() {
		if !strings.Contains(name, "test") { // this package's own tests register stubs
			cases[name] = registered(name, live, samples)
		}
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			s := build(t)
			bg := context.Background()
			conf := yolite.DefaultConfThresh

			// One batch of three equals three batches of one.
			batch, err := s.d.PredictBatchCtx(bg, x, conf)
			if err != nil {
				t.Fatalf("batch of three: %v", err)
			}
			if len(batch) != 3 {
				t.Fatalf("batch of three answered %d results", len(batch))
			}
			found := 0
			for n := range batch {
				single, err := detect.Only(s.d.PredictBatchCtx(bg, itemOf(x, n), conf))
				if err != nil {
					t.Fatalf("item %d alone: %v", n, err)
				}
				found += len(single)
				if s.slot0 && n > 0 {
					if batch[n] != nil {
						t.Errorf("slot %d carries %v, only slot 0 is the live screen", n, batch[n])
					}
					continue
				}
				if !reflect.DeepEqual(batch[n], single) {
					t.Errorf("item %d: in the batch %v, alone %v", n, batch[n], single)
				}
			}
			if found == 0 && (s.inner != nil || name == "yolite" || name == "frauddroid") {
				t.Error("vacuous: no detections on three dark-pattern screens")
			}

			// A cancellable context that never fires changes no bit.
			idle, cancel := context.WithCancel(bg)
			defer cancel()
			again, err := s.d.PredictBatchCtx(idle, x, conf)
			if err != nil || !reflect.DeepEqual(again, batch) {
				t.Errorf("cancellable-but-live context diverged from Background (err %v)", err)
			}

			// A dead context starts nothing.
			dead, kill := context.WithCancel(bg)
			kill()
			var before int64
			if s.inner != nil {
				before = s.inner.calls.Load()
			}
			out, err := s.d.PredictBatchCtx(dead, x, conf)
			if !errors.Is(err, context.Canceled) || out != nil {
				t.Errorf("dead context: out %v, err %v, want nil and Canceled", out, err)
			}
			if s.inner != nil && s.inner.calls.Load() != before {
				t.Error("dead context still reached the inner backend")
			}

			// A cancel mid-forward: error, nil results, pool whole. Every call
			// here carries a pixel value no earlier call had, so a result
			// cache cannot answer before the forward starts.
			if s.pool == nil {
				return
			}
			// Each call also gets a tensor of its own: a caller the serving
			// layer released on a dead context has left a forward that may
			// still be reading the one it passed in.
			screen := func(pixel float32) *tensor.Tensor {
				x0 := itemOf(x, 0)
				x0.Data[0] = pixel
				return x0
			}
			if _, err := s.d.PredictBatchCtx(bg, screen(0.5), conf); err != nil { // the pool now holds a one-screen forward's buffers
				t.Fatal(err)
			}
			aborted := 0
			for attempt := 0; attempt < 200 && aborted < 3; attempt++ {
				ctx, stop := context.WithCancel(bg)
				timer := time.AfterFunc(time.Duration(attempt%40+1)*50*time.Microsecond, stop)
				out, err := s.d.PredictBatchCtx(ctx, screen(float32(attempt+1)/1000), conf)
				timer.Stop()
				stop()
				if err != nil {
					if out != nil {
						t.Fatalf("aborted call returned results %v", out)
					}
					aborted++
				}
			}
			if aborted == 0 {
				t.Skip("no attempt landed mid-forward on this box")
			}
			if s.quiesce != nil {
				s.quiesce(screen(0.25))
			}
			// The reference is a twin that never saw an abort.
			x0 := screen(0.75)
			want, err := detect.Only(build(t).d.PredictBatchCtx(bg, x0, conf))
			if err != nil {
				t.Fatal(err)
			}
			_, newsBefore := s.pool.Stats()
			got, err := detect.Only(s.d.PredictBatchCtx(bg, x0, conf))
			_, newsAfter := s.pool.Stats()
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("after %d aborts the clean answer is %v (err %v), an unaborted twin's %v", aborted, got, err, want)
			}
			if newsAfter != newsBefore {
				t.Errorf("after %d aborts the pool allocated %d new buffers: an aborted forward kept one", aborted, newsAfter-newsBefore)
			}
		})
	}
}

// TestPredictRefusesWhatItCannotIndex pins the seam bugfix: an item index
// outside the batch, or a backend answering with the wrong number of results,
// is an error — not an index panic, and not another screen's boxes.
func TestPredictRefusesWhatItCannotIndex(t *testing.T) {
	x, _, _ := seamScreens()
	m := yolite.NewModel(3)
	for _, n := range []int{-1, 3, 1 << 20} {
		dets, err := detect.Predict(context.Background(), m, x, n, 0.3)
		if err == nil || dets != nil {
			t.Errorf("item %d of a batch of 3: dets %v, err %v, want an error", n, dets, err)
		}
	}
	if _, err := detect.Predict(context.Background(), m, x, 2, 0.3); err != nil {
		t.Errorf("item 2 of a batch of 3: %v", err)
	}
	for _, answered := range []int{0, 2, 4} {
		short := answers(answered)
		dets, err := detect.Predict(context.Background(), short, x, 0, 0.3)
		if !errors.Is(err, detect.ErrMisaligned) || dets != nil {
			t.Errorf("backend answering %d results for 3 items: dets %v, err %v, want ErrMisaligned", answered, dets, err)
		}
		if _, err := detect.Only(short.PredictBatchCtx(context.Background(), itemOf(x, 0), 0.3)); answered != 1 && !errors.Is(err, detect.ErrMisaligned) {
			t.Errorf("Only over %d results: err %v, want ErrMisaligned", answered, err)
		}
		if _, err := detect.Guarded(context.Background(), short, x, 0.3); !errors.Is(err, detect.ErrMisaligned) {
			t.Errorf("Guarded over %d results for 3 items: err %v, want ErrMisaligned", answered, err)
		}
	}
}

// answers is a backend that returns a fixed number of (empty) results
// whatever the batch holds.
type answers int

func (a answers) Name() string { return "answers" }

func (a answers) PredictBatchCtx(context.Context, *tensor.Tensor, float64) ([][]metrics.Detection, error) {
	return make([][]metrics.Detection, a), nil
}
