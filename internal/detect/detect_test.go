package detect

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// stubDetector returns a fixed detection set for every item, recording how
// many items it answered (calls), in which batch sizes, and at what threshold.
// A nil tensor counts as one screen.
type stubDetector struct {
	dets       []metrics.Detection
	calls      int
	batchSizes []int
	lastThresh float64
}

func (s *stubDetector) Name() string { return "stub" }

func (s *stubDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := 1
	if x != nil {
		n = x.Shape[0]
	}
	s.batchSizes = append(s.batchSizes, n)
	s.lastThresh = confThresh
	out := make([][]metrics.Detection, n)
	for i := range out {
		s.calls++
		out[i] = append([]metrics.Detection{}, s.dets...)
	}
	return out, nil
}

// one runs a single screen through the seam with no deadline.
func one(t testing.TB, d Detector, x *tensor.Tensor, confThresh float64) []metrics.Detection {
	t.Helper()
	dets, err := Only(d.PredictBatchCtx(context.Background(), x, confThresh))
	if err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
	return dets
}

// batch runs a batch through the seam with no deadline.
func batch(t testing.TB, d Detector, x *tensor.Tensor, confThresh float64) [][]metrics.Detection {
	t.Helper()
	out, err := d.PredictBatchCtx(context.Background(), x, confThresh)
	if err != nil {
		t.Fatalf("%s: %v", d.Name(), err)
	}
	return out
}

func det(x, y, w, h, score float64) metrics.Detection {
	return metrics.Detection{Class: dataset.ClassUPO, B: geom.BoxF{X: x, Y: y, W: w, H: h}, Score: score}
}

func inputTensor() *tensor.Tensor {
	x := tensor.New(1, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = float32(i%255) / 255
	}
	return x
}

func TestRegistryBuildAndNames(t *testing.T) {
	Register("test-backend", func(ctx BuildContext) (Detector, error) {
		return &stubDetector{}, nil
	})
	d, err := Build("test-backend", BuildContext{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if d.Name() != "stub" {
		t.Fatalf("built detector name = %q", d.Name())
	}
	found := false
	for _, n := range Names() {
		if n == "test-backend" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() = %v, missing test-backend", Names())
	}
}

func TestRegistryUnknownNameListsAlternatives(t *testing.T) {
	_, err := Build("no-such-backend", BuildContext{})
	if err == nil {
		t.Fatal("Build of unknown name should error")
	}
	if !strings.Contains(err.Error(), "yolite") {
		t.Fatalf("error should list registered names, got: %v", err)
	}
}

func TestRegistryHasAllBuiltins(t *testing.T) {
	names := Names()
	for _, want := range []string{"yolite", "yolite-masked", "yolite-int8",
		"faster-rcnn-vgg16", "faster-rcnn-resnet50", "mask-rcnn-vgg16", "mask-rcnn-resnet50",
		"frauddroid"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing builtin %q (have %v)", want, names)
		}
	}
}

func TestFraudDroidBuilderRequiresScreen(t *testing.T) {
	if _, err := Build("frauddroid", BuildContext{}); err == nil {
		t.Fatal("frauddroid without a screen provider should error")
	}
	d, err := Build("frauddroid", BuildContext{Screen: func() *uikit.Screen { return nil }})
	if err != nil {
		t.Fatalf("frauddroid with screen provider: %v", err)
	}
	if d.Name() != "frauddroid" {
		t.Fatalf("name = %q", d.Name())
	}
}

// TestSaveWeights: a yolite build told to save what it trains creates a
// missing weights directory, and a save that fails fails the build.
func TestSaveWeights(t *testing.T) {
	ctx := BuildContext{
		WeightsDir:  filepath.Join(t.TempDir(), "new", "weights"),
		SaveWeights: true,
		Samples:     func() []*dataset.Sample { return auigen.BuildAUISamples(1, 2, auigen.DatasetConfig{}) },
		Epochs:      1,
	}
	if _, err := Build("yolite", ctx); err != nil {
		t.Fatalf("build into a new directory: %v", err)
	}
	if _, err := os.Stat(filepath.Join(ctx.WeightsDir, "yolite.gob")); err != nil {
		t.Fatalf("trained weights not saved: %v", err)
	}
	// A directory where the weight file goes: it does not load, so the build
	// trains, and then it cannot be written.
	if err := os.Mkdir(filepath.Join(ctx.WeightsDir, "yolite_masked.gob"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Build("yolite-masked", ctx); err == nil {
		t.Fatal("a build whose weights cannot be saved succeeded")
	}
}

func TestResultCacheSkipsInference(t *testing.T) {
	s := &stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}
	c := WithResultCache(s, 8)
	x := inputTensor()

	first := c.PredictTensor(x, 0, 0.45)
	if s.calls != 1 || c.Misses() != 1 || c.Hits() != 0 {
		t.Fatalf("first call: calls=%d misses=%d hits=%d", s.calls, c.Misses(), c.Hits())
	}
	second := c.PredictTensor(x, 0, 0.45)
	if s.calls != 1 {
		t.Fatalf("unchanged screen should skip inference, inner ran %d times", s.calls)
	}
	if c.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", c.Hits())
	}
	if len(second) != len(first) || second[0] != first[0] {
		t.Fatalf("cached result differs: %v vs %v", second, first)
	}

	// Changing a pixel or the threshold is a different key.
	x.Data[7] += 0.5
	c.PredictTensor(x, 0, 0.45)
	if s.calls != 2 {
		t.Fatalf("changed screen should re-run inference, calls = %d", s.calls)
	}
	c.PredictTensor(x, 0, 0.60)
	if s.calls != 3 {
		t.Fatalf("changed threshold should re-run inference, calls = %d", s.calls)
	}
}

func TestResultCacheEvictsFIFO(t *testing.T) {
	s := &stubDetector{}
	c := WithResultCache(s, 2)
	a, b, d := inputTensor(), inputTensor(), inputTensor()
	b.Data[0] = 0.9
	d.Data[0] = 0.8

	c.PredictTensor(a, 0, 0.45) // miss, cache {a}
	c.PredictTensor(b, 0, 0.45) // miss, cache {a,b}
	c.PredictTensor(d, 0, 0.45) // miss, evicts a -> {b,d}
	if c.Len() != 2 {
		t.Fatalf("capacity 2 cache holds %d entries", c.Len())
	}
	c.PredictTensor(a, 0, 0.45) // a was evicted: miss again
	if s.calls != 4 {
		t.Fatalf("expected 4 inner calls after eviction, got %d", s.calls)
	}
	c.PredictTensor(d, 0, 0.45) // d still cached
	if c.Hits() != 1 {
		t.Fatalf("hits = %d, want 1", c.Hits())
	}
}

func TestResultCacheBadBatchIndexBypasses(t *testing.T) {
	s := &stubDetector{}
	c := WithResultCache(s, 4)
	x := inputTensor()
	x.Shape[0] = 2 // claims an item its data does not hold: must delegate, not cache
	batch(t, c, x, 0.45)
	if len(s.batchSizes) != 1 || c.Len() != 0 || c.Hits()+c.Misses() != 0 {
		t.Fatalf("malformed batch: inner calls=%v len=%d lookups=%d", s.batchSizes, c.Len(), c.Hits()+c.Misses())
	}
	// An item index outside a well-formed batch is the shim's to refuse.
	if dets := c.PredictTensor(inputTensor(), 5, 0.45); dets != nil {
		t.Fatalf("out-of-range item answered: %v", dets)
	}
}

func TestMiddlewareComposes(t *testing.T) {
	s := &stubDetector{dets: []metrics.Detection{det(10, 10, 8, 8, 0.9)}}
	d := WithRetry(WithResultCache(s, 4), 0)
	if d.Name() != "stub" {
		t.Fatalf("composed stack should still report the backend name, got %q", d.Name())
	}
	x := inputTensor()
	one(t, d, x, 0.45)
	one(t, d, x, 0.45)
	if s.calls != 1 {
		t.Fatalf("cache inside the stack should absorb the repeat, inner calls = %d", s.calls)
	}
	if calls := d.Stats().Calls; calls != 2 {
		t.Fatalf("the retrier outside the cache should see both calls, saw %d", calls)
	}
}

func TestPredictCanvasScalesToScreen(t *testing.T) {
	// A detection at model-input coords (10,20) 8x4 on a 384x640 canvas
	// (4x input) should come back at (40,80) 32x16.
	s := &stubDetector{dets: []metrics.Detection{det(10, 20, 8, 4, 0.9)}}
	got := PredictCanvas(s, render.NewCanvas(384, 640), 0.45)
	if len(got) != 1 {
		t.Fatalf("got %d detections", len(got))
	}
	b := got[0].B
	if b.X != 40 || b.Y != 80 || b.W != 32 || b.H != 16 {
		t.Fatalf("scaled box = %+v", b)
	}
}

// TestPredictScalesToCanvas checks the scaling contract on a real model, down
// the path httpd serves: predictions on a 2x canvas are 2x the raw ones.
func TestPredictScalesToCanvas(t *testing.T) {
	m := yolite.NewModel(4)
	small := render.NewCanvas(yolite.InputW, yolite.InputH)
	small.Fill(small.Bounds(), render.White)
	big := small.Resize(2*yolite.InputW, 2*yolite.InputH)
	ctx := context.Background()
	rawDets, err := PredictCanvasCtx(ctx, m, small, small.W, small.H, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	bigDets, err := PredictCanvasCtx(ctx, m, big, big.W, big.H, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rawDets) == 0 || len(rawDets) != len(bigDets) {
		t.Fatalf("detection counts differ: %d vs %d", len(rawDets), len(bigDets))
	}
	r, b := rawDets[0].B, bigDets[0].B
	if math.Abs(b.X-2*r.X) > 1e-6 || math.Abs(b.W-2*r.W) > 1e-6 {
		t.Fatalf("scaling broken: %v vs %v", r, b)
	}
}
