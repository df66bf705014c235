// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation (run `go test -bench=. -benchmem`). Each
// benchmark prints the reproduced table via b.Logf; the quick configuration
// keeps runtimes tractable, and pretrained weights in ./weights are used
// when present (see cmd/darpa-train). cmd/darpa-experiments runs the
// paper-scale versions.
package main

import (
	"os"
	"sync"
	"testing"

	"repro/internal/auigen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/yolite"
)

var (
	envOnce  sync.Once
	benchEnv *experiments.Env
)

// sharedEnv builds one quick environment (with pretrained weights when
// available) shared by all benchmarks, so dataset generation and model
// training are paid once.
func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		opts := []experiments.EnvOption{experiments.WithQuick()}
		if _, err := os.Stat("weights/yolite.gob"); err == nil {
			opts = append(opts, experiments.WithWeightsDir("weights"))
		}
		benchEnv = experiments.NewEnv(opts...)
	})
	return benchEnv
}

func logTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	b.Logf("\n%s", t.Format())
}

func BenchmarkTable1SubjectDistribution(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table1()
	}
	logTable(b, t)
}

func BenchmarkTable2DatasetSplit(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table2()
	}
	logTable(b, t)
}

func BenchmarkTable3OnDeviceEffectiveness(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table3()
	}
	logTable(b, t)
}

func BenchmarkTable4ServerAndMaskedModels(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table4()
	}
	logTable(b, t)
}

func BenchmarkTable5ModelComparison(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table5()
	}
	logTable(b, t)
}

func BenchmarkTable6DARPAvsFraudDroid(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table6()
	}
	logTable(b, t)
}

func BenchmarkTable7Overhead(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.Table7()
	}
	logTable(b, t)
}

var (
	sweepOnce sync.Once
	sweepData []experiments.CutoffSweep
)

func sharedSweep(b *testing.B) []experiments.CutoffSweep {
	env := sharedEnv(b)
	sweepOnce.Do(func() { sweepData = env.Sweep() })
	return sweepData
}

func BenchmarkTable8CutoffPerformance(b *testing.B) {
	var t *experiments.Table
	sweep := sharedSweep(b)
	for i := 0; i < b.N; i++ {
		t = experiments.Table8(sweep)
	}
	logTable(b, t)
}

func BenchmarkFigure8CutoffCoverage(b *testing.B) {
	var t *experiments.Table
	sweep := sharedSweep(b)
	for i := 0; i < b.N; i++ {
		t = experiments.Figure8(sweep)
	}
	logTable(b, t)
}

func BenchmarkUserStudyFindings(b *testing.B) {
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = experiments.UserStudyTable()
	}
	logTable(b, t)
}

func BenchmarkLayoutStatistics(b *testing.B) {
	env := sharedEnv(b)
	var t *experiments.Table
	for i := 0; i < b.N; i++ {
		t = env.LayoutTable()
	}
	logTable(b, t)
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationNoRefine measures the edge-snapping post-processor's
// contribution to F1@0.9.
func BenchmarkAblationNoRefine(b *testing.B) {
	env := sharedEnv(b)
	m := env.Float()
	test := env.Split().Test
	var withF, withoutF float64
	for i := 0; i < b.N; i++ {
		m.DisableRefine = false
		withF = yolite.Evaluate(m, test, metrics.PaperIoUThreshold).All().F1()
		m.DisableRefine = true
		withoutF = yolite.Evaluate(m, test, metrics.PaperIoUThreshold).All().F1()
		m.DisableRefine = false
	}
	b.Logf("F1@0.9 with refinement %.3f, without %.3f", withF, withoutF)
}

// BenchmarkAblationQuant measures the accuracy cost of the int8 port.
func BenchmarkAblationQuant(b *testing.B) {
	env := sharedEnv(b)
	test := env.Split().Test
	var floatF, intF float64
	for i := 0; i < b.N; i++ {
		floatF = yolite.Evaluate(env.Float(), test, metrics.PaperIoUThreshold).All().F1()
		intF = yolite.Evaluate(env.Device(), test, metrics.PaperIoUThreshold).All().F1()
	}
	b.Logf("F1@0.9 float %.3f, int8 %.3f (paper: 0.859 -> 0.842)", floatF, intF)
}

// BenchmarkAblationNoDebounce compares analysing every event against ct
// debouncing — the motivation for the cut-off interval (Section IV-B).
func BenchmarkAblationNoDebounce(b *testing.B) {
	env := sharedEnv(b)
	_ = env.Device() // ensure the detector exists before timing
	var with, without int
	for i := 0; i < b.N; i++ {
		s := env.RunAblationDebounce(true)
		with = s.Analyses
		s = env.RunAblationDebounce(false)
		without = s.Analyses
	}
	b.Logf("analyses with ct=200ms: %d; with ct=1ms (no debounce): %d", with, without)
}

// BenchmarkInferenceLatency times a single end-to-end detection (screenshot
// tensor -> boxes), the per-screen cost on the critical path.
func BenchmarkInferenceLatency(b *testing.B) {
	env := sharedEnv(b)
	m := env.Device()
	sample := env.Split().Test[0]
	x := yolite.CanvasToTensor(sample.Input)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictTensor(x, 0, yolite.DefaultConfThresh)
	}
}

// BenchmarkFloatInferenceLatency is the float-model counterpart.
func BenchmarkFloatInferenceLatency(b *testing.B) {
	env := sharedEnv(b)
	m := env.Float()
	sample := env.Split().Test[0]
	x := yolite.CanvasToTensor(sample.Input)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictTensor(x, 0, yolite.DefaultConfThresh)
	}
}

// BenchmarkQuantPort times the ncnn-style porting step itself.
func BenchmarkQuantPort(b *testing.B) {
	env := sharedEnv(b)
	m := env.Float()
	calib := env.Split().Train
	if len(calib) > 8 {
		calib = calib[:8]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Port(m, calib)
	}
}

// BenchmarkDetectCached measures the detect.WithResultCache fast path: the
// same screenshot tensor analysed repeatedly (the post-debounce common case)
// answers from the content-hash cache instead of re-running the conv
// backbone. Compare against BenchmarkInferenceLatency for the saving.
func BenchmarkDetectCached(b *testing.B) {
	env := sharedEnv(b)
	cached := detect.WithResultCache(env.Device(), 8)
	sample := env.Split().Test[0]
	x := yolite.CanvasToTensor(sample.Input)
	cached.PredictTensor(x, 0, yolite.DefaultConfThresh) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cached.PredictTensor(x, 0, yolite.DefaultConfThresh)
	}
	b.StopTimer()
	if cached.Hits() != b.N {
		b.Fatalf("expected %d cache hits, got %d", b.N, cached.Hits())
	}
}

// BenchmarkDatasetGeneration times synthesising one labelled AUI screen.
func BenchmarkDatasetGeneration(b *testing.B) {
	cfg := auigen.DatasetConfig{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		auigen.BuildAUISamples(int64(i), 1, cfg)
	}
}

// BenchmarkScreenLevelDetection is the end-to-end per-screen cost: render a
// device screenshot, downscale, infer, refine.
func BenchmarkScreenLevelDetection(b *testing.B) {
	env := sharedEnv(b)
	m := env.Device()
	g := auigen.New(4242, auigen.Config{})
	aui := g.AUIFor(dataset.SubjectAdvertisement, 384, 595)
	sample := g.RenderAUI(aui, auigen.DatasetConfig{ScreenW: 384, ScreenH: 640})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictTensor(yolite.CanvasToTensor(sample.Input), 0, yolite.DefaultConfThresh)
	}
	_ = core.ModeFull // keep the core package linked for the ablation below
}
