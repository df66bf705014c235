package core

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/quant"
	"repro/internal/render"
	"repro/internal/yolite"
)

// TestAuditMatchesPerScreen is the differential test of the real audit path:
// AuditScreensCtx at batch 8 on the checked-in weights, over 36 generator
// screens at 192x320 (four full chunks and a short one), answers every
// screen exactly as detect.PredictCanvasCtx does one screen at a time — for
// the float model and for its int8 port calibrated the way the registry
// calibrates it. The batched build, the per-item input quantisation and the
// per-item decode all run on the worker pool, so this is what pins them to
// the serial path. Refine must move at least one answer, or the comparison
// would say nothing about the edge-snap search.
func TestAuditMatchesPerScreen(t *testing.T) {
	loadPretrainedOnly(t) // skips without the checked-in weights
	calib := auigen.BuildAUISamples(1, 16, auigen.DatasetConfig{})
	bctx := detect.BuildContext{
		WeightsDir: filepath.Join("..", "..", "weights"),
		Samples:    func() []*dataset.Sample { return calib },
	}
	cfg := auigen.DatasetConfig{InputW: 2 * yolite.InputW, InputH: 2 * yolite.InputH}
	samples := append(auigen.BuildAUISamples(11, 28, cfg), auigen.BuildNegativeSamples(12, 8, cfg)...)
	shots := make([]*render.Canvas, len(samples))
	for i, s := range samples {
		shots[i] = s.Input
	}
	ctx := context.Background()
	for _, name := range []string{"yolite", "yolite-int8"} {
		t.Run(name, func(t *testing.T) {
			det, err := detect.Build(name, bctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AuditScreensCtx(ctx, det, shots, yolite.DefaultConfThresh, 8)
			if err != nil || len(got) != len(shots) {
				t.Fatalf("audit: %d answers for %d screens, err %v", len(got), len(shots), err)
			}
			found := 0
			for i, c := range shots {
				want, err := detect.PredictCanvasCtx(ctx, det, c, c.W, c.H, yolite.DefaultConfThresh)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got[i], want) {
					t.Fatalf("screen %d: audit %v, alone %v", i, got[i], want)
				}
				found += len(want)
			}
			setRefine(det, false)
			raw, err := AuditScreensCtx(ctx, det, shots, yolite.DefaultConfThresh, 8)
			setRefine(det, true)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for i := range raw {
				if !slices.Equal(raw[i], got[i]) {
					moved++
				}
			}
			if moved == 0 {
				t.Fatalf("refine moved nothing on %d screens (%d detections)", len(shots), found)
			}
			t.Logf("%d detections, refine moved answers on %d of %d screens", found, moved, len(shots))
		})
	}
}

// setRefine turns the edge-snap refine of either conv backend on or off.
func setRefine(det detect.Detector, on bool) {
	switch m := det.(type) {
	case *yolite.Model:
		m.DisableRefine = !on
	case *quant.Model:
		m.DisableRefine = !on
	}
}
