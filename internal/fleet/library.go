package fleet

import (
	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// screen is one library entry: the model-input tensor and the key the result
// table knows it by, computed once here so no request ever hashes pixels.
type screen struct {
	x   *tensor.Tensor
	key detect.Key
}

// library is the fleet's shared screen pool: K unique AUI screens and K
// unique benign screens, pre-rendered to model-input tensors once at startup.
// Devices pick from it per analysis with their own RNG, so 100k devices
// generate realistic request *traffic* without paying 100k renders per
// virtual second, and the working set is what a production fleet's repeated
// screens exhibit: at most 2K distinct screens, each of which rides the
// serving stack once and is answered from the run's result table after.
type library struct {
	aui []screen // screens showing an asymmetric dark UI
	neg []screen // benign screens
}

// buildLibrary renders and keys the pool. n bounds each class; seed keeps the
// pool — and with it every table interaction — deterministic per run seed.
func buildLibrary(seed int64, n int) *library {
	return &library{
		aui: screensOf(auigen.BuildAUISamples(seed, n, auigen.DatasetConfig{})),
		neg: screensOf(auigen.BuildNegativeSamples(seed+1, n, auigen.DatasetConfig{})),
	}
}

func screensOf(samples []*dataset.Sample) []screen {
	out := make([]screen, len(samples))
	for i, s := range samples {
		x := yolite.CanvasToTensor(s.Input)
		key, _ := detect.KeyOf(x, 0, yolite.DefaultConfThresh) // a 1-item tensor always keys
		out[i] = screen{x: x, key: key}
	}
	return out
}
