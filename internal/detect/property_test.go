package detect

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// Property tests over seeded random detection sets: invariants the
// middleware and resilience layers must hold for any input, not just the
// hand-picked fixtures of the unit tests.

// randomDets draws n detections with boxes in a crowded 100x100 field, so
// NMS actually has overlaps to suppress.
func randomDets(rng *rand.Rand, n int) []metrics.Detection {
	out := make([]metrics.Detection, n)
	for i := range out {
		cls := dataset.ClassUPO
		if rng.Intn(2) == 1 {
			cls = dataset.ClassAGO
		}
		out[i] = metrics.Detection{
			Class: cls,
			B: geom.BoxF{
				X: rng.Float64() * 100,
				Y: rng.Float64() * 100,
				W: 1 + rng.Float64()*40,
				H: 1 + rng.Float64()*40,
			},
			Score: rng.Float64(),
		}
	}
	return out
}

// TestNMSIdempotent pins nms(nms(x)) == nms(x): a second pass over an
// already-suppressed set must remove nothing, for any input and threshold.
func TestNMSIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		dets := randomDets(rng, rng.Intn(30))
		iou := rng.Float64()
		once := metrics.NMS(dets, iou)
		twice := metrics.NMS(once, iou)
		if !sameDets(once, twice) {
			t.Fatalf("trial %d (iou %.3f): NMS not idempotent:\nonce:  %v\ntwice: %v",
				trial, iou, once, twice)
		}
	}
}

// TestResilienceTransparentOnRandomResults pins the "transparent when
// healthy" half of the resilience contract property-style: for any result a
// healthy backend produces, retry, a fallback chain, and their composition
// all return it bit-identical.
func TestResilienceTransparentOnRandomResults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ctx := context.Background()
	x := resTensor(1)
	for trial := 0; trial < 100; trial++ {
		// Scores in [0,1] and finite boxes: a healthy result that must pass
		// validation untouched.
		dets := randomDets(rng, rng.Intn(20))
		mk := func() *flakyBackend { return &flakyBackend{dets: dets} }
		want := append([]metrics.Detection(nil), dets...)

		wrapped := map[string]Detector{
			"retry":    WithRetry(mk(), 0),
			"fallback": WithFallback(mk()),
			"stacked":  WithFallback(WithRetry(mk(), 0)),
		}
		for name, d := range wrapped {
			got, err := Predict(ctx, d, x, 0, 0.5)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameDets(got, want) {
				t.Fatalf("trial %d: %s altered a healthy result:\ngot:  %v\nwant: %v",
					trial, name, got, want)
			}
		}
	}
}
