package frauddroid

import (
	"context"
	"testing"

	"repro/internal/metrics"

	"repro/internal/tensor"
	"repro/internal/uikit"
)

// batch runs the adapter's seam with no deadline.
func batch(t *testing.T, a *ViewAdapter, x *tensor.Tensor) [][]metrics.Detection {
	t.Helper()
	out, err := a.PredictBatchCtx(context.Background(), x, 0.5)
	if err != nil {
		t.Fatalf("PredictBatchCtx: %v", err)
	}
	return out
}

func TestAdapterNilScreenReturnsNothing(t *testing.T) {
	a := &ViewAdapter{}
	if dets := batch(t, a, tensor.New(1, 3, 160, 96))[0]; dets != nil {
		t.Fatalf("no screen provider should yield nil, got %v", dets)
	}
	a.Screen = func() *uikit.Screen { return nil }
	if dets := batch(t, a, tensor.New(1, 3, 160, 96))[0]; dets != nil {
		t.Fatalf("nil screen should yield nil, got %v", dets)
	}
}

// TestAdapterBatchContract: the adapter wraps ONE live screen, so only batch
// slot 0 may carry its detections. The old behaviour — returning the live
// screen's boxes for every index n — poisoned batched evaluations with N
// copies of the same detections.
func TestAdapterBatchContract(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s, _ := screenWithAUI(t, false, seed)
		a := &ViewAdapter{Screen: func() *uikit.Screen { return s }}
		live := batch(t, a, tensor.New(1, 3, 160, 96))[0]
		if len(live) == 0 {
			continue
		}
		out := batch(t, a, tensor.New(3, 3, 160, 96))
		if len(out) != 3 {
			t.Fatalf("PredictBatchCtx returned %d items, want 3", len(out))
		}
		if len(out[0]) != len(live) {
			t.Fatalf("batch slot 0 has %d detections, batch-of-one %d", len(out[0]), len(live))
		}
		if out[1] != nil || out[2] != nil {
			t.Fatalf("non-live batch slots must be empty: %v / %v", out[1], out[2])
		}
		return
	}
	t.Skip("no seed detected; covered by aggregate heuristic tests")
}

func TestAdapterScalesToModelInput(t *testing.T) {
	// Find a seed the heuristic detects (id-based, deterministic).
	for seed := int64(0); seed < 20; seed++ {
		s, _ := screenWithAUI(t, false, seed)
		a := &ViewAdapter{Screen: func() *uikit.Screen { return s }}
		x := tensor.New(1, 3, 160, 96) // model-input shape: 4x downscale of 384x640
		dets := batch(t, a, x)[0]
		if len(dets) == 0 {
			continue
		}
		for _, d := range dets {
			b := d.B
			if b.X < 0 || b.Y < 0 || b.X+b.W > 96 || b.Y+b.H > 160 {
				t.Fatalf("detection %v not in model-input coordinates", b)
			}
			if d.Score != 1 {
				t.Fatalf("heuristic detections are binary, score = %v", d.Score)
			}
		}
		// Without shape information the same boxes come back unscaled
		// (screen coordinates), so they are 4x larger.
		raw := a.detectLive(nil)
		if len(raw) != len(dets) {
			t.Fatalf("nil tensor changed detection count: %d vs %d", len(raw), len(dets))
		}
		if raw[0].B.W != dets[0].B.W*4 {
			t.Fatalf("unscaled width %v, scaled %v — want 4x ratio", raw[0].B.W, dets[0].B.W)
		}
		return
	}
	t.Skip("no seed detected; covered by aggregate heuristic tests")
}
