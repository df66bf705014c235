package serve

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// TestCorruptAnswerNeverPassesAWrapper holds every wrapper and pipeline over
// the seam to one contract: an inner answer carrying a NaN box comes back as
// detect.ErrCorruptResult, never as detections a decorator would draw. The
// inner backend answers item 0 of every call corrupted, except in the grouped
// forward, where only the poison screen is; there its batchmates must still
// get their own real answers.
func TestCorruptAnswerNeverPassesAWrapper(t *testing.T) {
	ctx := context.Background()
	corrupt := func() detect.Detector {
		plan := faults.NewPlan(1, faults.Rule{Kind: faults.Corrupt, Rate: 1})
		return faults.Wrap(&poisonBackend{}, plan)
	}
	pair := tensor.New(2, 1, 2, 2)
	pair.Data[4] = 1
	cases := []struct {
		name string
		run  func(t *testing.T) ([][]metrics.Detection, error)
	}{
		{"Cache", func(t *testing.T) ([][]metrics.Detection, error) {
			c := detect.WithResultCache(corrupt(), 8)
			out, err := c.PredictBatchCtx(ctx, screenTensor(1), 0.5)
			if c.Len() != 0 {
				t.Errorf("cache stored %d corrupt answers", c.Len())
			}
			return out, err
		}},
		{"Batcher/single", func(t *testing.T) ([][]metrics.Detection, error) {
			b := NewReplicated(Options{}, corrupt())
			defer b.Close()
			return b.PredictBatchCtx(ctx, screenTensor(1), 0.5)
		}},
		{"Batcher/direct", func(t *testing.T) ([][]metrics.Detection, error) {
			b := NewReplicated(Options{}, corrupt())
			defer b.Close()
			return b.PredictBatchCtx(ctx, pair, 0.5)
		}},
		{"Batcher/closed", func(t *testing.T) ([][]metrics.Detection, error) {
			// After Close only a batch of several items still reaches the
			// backend (a one-item request gets ErrClosed); it is guarded too.
			b := NewReplicated(Options{}, corrupt())
			b.Close()
			return b.PredictBatchCtx(ctx, pair, 0.5)
		}},
		{"Batcher/grouped", func(t *testing.T) ([][]metrics.Detection, error) {
			h := &heldBackend{Detector: &poisonBackend{mode: "corrupt"}, gate: make(chan struct{})}
			b := NewReplicated(Options{MaxBatch: 4}, h)
			defer b.Close()
			dets, errs := runPoisonedGroup(t, b, h, 4)
			for i := 0; i < 3; i++ {
				if errs[i] != nil || len(dets[i]) != 1 || dets[i][0].B.X != float64(i) {
					t.Errorf("batchmate %d: dets %+v, err %v, want its own answer", i, dets[i], errs[i])
				}
			}
			if st := b.Stats(); st.Poisoned < 1 || st.Failed != 1 {
				t.Errorf("serve stats = %+v, want a poisoned group and one failed request", st)
			}
			if dets[3] != nil {
				return [][]metrics.Detection{dets[3]}, errs[3]
			}
			return nil, errs[3]
		}},
		{"Retrier", func(t *testing.T) ([][]metrics.Detection, error) {
			return detect.WithRetry(corrupt(), 2).PredictBatchCtx(ctx, screenTensor(1), 0.5)
		}},
		{"FallbackChain", func(t *testing.T) ([][]metrics.Detection, error) {
			return detect.WithFallback(corrupt(), corrupt()).PredictBatchCtx(ctx, screenTensor(1), 0.5)
		}},
		{"AuditScreensCtx", func(t *testing.T) ([][]metrics.Detection, error) {
			shot := render.NewCanvas(yolite.InputW, yolite.InputH)
			return core.AuditScreensCtx(ctx, corrupt(), []*render.Canvas{shot, shot}, 0.5, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.run(t)
			if !errors.Is(err, detect.ErrCorruptResult) || len(out) != 0 {
				t.Fatalf("corrupt inner answer came back as %+v, err %v; want ErrCorruptResult and no detections", out, err)
			}
		})
	}
}
