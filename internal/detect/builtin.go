package detect

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/frauddroid"
	"repro/internal/quant"
	"repro/internal/rcnn"
	"repro/internal/yolite"
)

// The built-in backends. Each registers under the name binaries and
// examples select with; yolite variants share one builder parameterised by
// the weight-file stem.
func init() {
	Register("yolite", buildYolite("yolite"))
	Register("yolite-masked", buildYolite("yolite-masked"))
	Register("yolite-int8", buildInt8)
	for _, v := range rcnn.Variants {
		Register(v.Slug(), buildRCNN(v))
	}
	Register("frauddroid", buildFraudDroid)
}

// Compile-time checks that every backend and every wrapper satisfies the
// seam.
var (
	_ Detector = (*yolite.Model)(nil)
	_ Detector = (*quant.Model)(nil)
	_ Detector = (*rcnn.Model)(nil)
	_ Detector = (*frauddroid.ViewAdapter)(nil)

	_ Detector = (*Cache)(nil)
	_ Detector = (*Retrier)(nil)
	_ Detector = (*FallbackChain)(nil)
)

// weightsPath maps a registry name to its weight file ("yolite-masked" →
// "yolite_masked.gob", matching the files cmd/darpa-train writes).
func weightsPath(dir, name string) string {
	return filepath.Join(dir, strings.ReplaceAll(name, "-", "_")+".gob")
}

// buildYolite loads pretrained float weights when available and trains on
// the context's sample pool otherwise. It serves both the "yolite" and
// "yolite-masked" registrations: the masked variant differs only in its
// weight file and in the (text-masked) samples the caller supplies.
func buildYolite(name string) Builder {
	return func(ctx BuildContext) (Detector, error) {
		return buildYoliteNamed(name, ctx)
	}
}

func buildYoliteNamed(name string, ctx BuildContext) (*yolite.Model, error) {
	if ctx.WeightsDir != "" {
		path := weightsPath(ctx.WeightsDir, name)
		if _, err := os.Stat(path); err == nil {
			m := yolite.NewModel(trainSeed)
			if err := m.Load(path); err == nil {
				ctx.logf("loaded %s", path)
				return m, nil
			}
			ctx.logf("weight file %s unusable; retraining", path)
		}
	}
	pool, err := ctx.samples()
	if err != nil {
		return nil, fmt.Errorf("detect: %s: no usable weights and %w", name, err)
	}
	ctx.logf("training %s (%d samples, %d epochs)...", name, len(pool), ctx.Epochs)
	m := yolite.Train(pool, yolite.TrainConfig{
		Epochs: ctx.Epochs,
		Seed:   trainSeed,
		Progress: func(ep int, l float64) {
			if ep%4 == 0 {
				ctx.logf("  %s epoch %d loss %.2f", name, ep, l)
			}
		},
	})
	if ctx.SaveWeights && ctx.WeightsDir != "" {
		path := weightsPath(ctx.WeightsDir, name)
		if err := m.Save(path); err == nil {
			ctx.logf("saved %s", path)
		}
	}
	return m, nil
}

// buildInt8 ports the float model to the ncnn-style int8 backend,
// calibrating activations on a small sample subset. A prebuilt float model
// in ctx.Base is reused; otherwise the "yolite" builder runs first.
func buildInt8(ctx BuildContext) (Detector, error) {
	float, ok := ctx.Base.(*yolite.Model)
	if !ok {
		m, err := buildYoliteNamed("yolite", ctx)
		if err != nil {
			return nil, err
		}
		float = m
	}
	calib, err := ctx.samples()
	if err != nil {
		return nil, fmt.Errorf("detect: yolite-int8: calibration needs samples: %w", err)
	}
	if len(calib) > 16 {
		calib = calib[:16]
	}
	return quant.Port(float, calib), nil
}

// buildRCNN trains one Table V two-stage baseline. RCNN weights are not
// persisted (the harness retrains them, matching cmd/darpa-train).
func buildRCNN(v rcnn.Variant) Builder {
	return func(ctx BuildContext) (Detector, error) {
		pool, err := ctx.samples()
		if err != nil {
			return nil, fmt.Errorf("detect: %s: %w", v.Slug(), err)
		}
		ctx.logf("training %s (%d samples)...", v.Slug(), len(pool))
		return rcnn.Train(v, pool, rcnn.TrainConfig{Epochs: ctx.Epochs, Seed: trainSeed}), nil
	}
}

// buildFraudDroid wires the metadata heuristic to the live screen. It needs
// no training — only a screen provider.
func buildFraudDroid(ctx BuildContext) (Detector, error) {
	if ctx.Screen == nil {
		return nil, fmt.Errorf("detect: frauddroid reads view metadata and needs a screen provider")
	}
	return &frauddroid.ViewAdapter{Screen: ctx.Screen}, nil
}
