// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section VI) plus the Section III measurements. Each
// runner returns a formatted Table that cmd/darpa-experiments and the root
// benchmark suite print, alongside the paper's reported values for
// comparison (EXPERIMENTS.md is generated from these).
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/quant"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// Shared deterministic seeds so every runner sees the same data.
const (
	// DatasetSeed generates the D_aui equivalent.
	DatasetSeed = 1072
	// MaskedSeed generates the text-masked variant (same screens, blurred
	// labels — it must equal DatasetSeed so screens correspond).
	MaskedSeed = DatasetSeed
	// SplitSeed shuffles the 6:2:2 split.
	SplitSeed = 622
	// ModelSeed initialises model weights and training shuffles; detect's
	// builders use the same seed.
	ModelSeed = 7
	// DeviceSeed drives the simulated-device experiments.
	DeviceSeed = 100
)

// DataConfig returns the dataset rendering configuration shared by every
// experiment.
func DataConfig() auigen.DatasetConfig { return auigen.DatasetConfig{} }

// SplitRand returns the deterministic split shuffler.
func SplitRand() *rand.Rand { return rand.New(rand.NewSource(SplitSeed)) }

// Env bundles the datasets and trained models the experiment runners share.
type Env struct {
	// Quick selects the reduced configuration (small dataset, few epochs)
	// used by unit-test-speed runs; the full configuration reproduces the
	// paper-scale numbers.
	Quick bool
	// WeightsDir, when set, is consulted for pretrained weight files
	// before any training happens.
	WeightsDir string

	cfg    auigen.DatasetConfig
	split  dataset.Split
	masked dataset.Split
	apps   int

	detectorName string
	detectors    map[string]detect.Detector
	curScreen    *uikit.Screen

	verbose func(format string, args ...any)
}

// EnvOption configures NewEnv.
type EnvOption func(*Env)

// WithQuick selects the reduced configuration.
func WithQuick() EnvOption { return func(e *Env) { e.Quick = true } }

// WithWeightsDir points the environment at pretrained weights.
func WithWeightsDir(dir string) EnvOption { return func(e *Env) { e.WeightsDir = dir } }

// WithLogf sets a progress logger.
func WithLogf(f func(string, ...any)) EnvOption { return func(e *Env) { e.verbose = f } }

// WithApps overrides the number of simulated apps in device experiments.
func WithApps(n int) EnvOption { return func(e *Env) { e.apps = n } }

// WithDetector selects the registry backend the device experiments run
// (default "yolite-int8", the ported on-device model).
func WithDetector(name string) EnvOption { return func(e *Env) { e.detectorName = name } }

// NewEnv builds the shared datasets (models are trained or loaded lazily).
func NewEnv(opts ...EnvOption) *Env {
	e := &Env{cfg: DataConfig(), verbose: func(string, ...any) {}}
	for _, o := range opts {
		o(e)
	}
	n := e.datasetSize()
	e.verbose("building dataset (%d AUI screenshots)...", n)
	all := auigen.BuildAUISamples(DatasetSeed, n, e.cfg)
	e.split = dataset.SplitSamples(all, SplitRand())
	return e
}

func (e *Env) datasetSize() int {
	if e.Quick {
		return 120
	}
	return auigen.PaperDatasetSize
}

func (e *Env) epochs() int {
	if e.Quick {
		return 10
	}
	return 28
}

// Split returns the shared 6:2:2 split.
func (e *Env) Split() dataset.Split { return e.split }

// MaskedSplit lazily builds the text-masked dataset (Table IV).
func (e *Env) MaskedSplit() dataset.Split {
	if e.masked.Train == nil {
		cfg := e.cfg
		cfg.MaskText = true
		e.verbose("building text-masked dataset...")
		all := auigen.BuildAUISamples(MaskedSeed, e.datasetSize(), cfg)
		e.masked = dataset.SplitSamples(all, SplitRand())
	}
	return e.masked
}

// trainSet is train+validation, the pool the models fit on (validation was
// used for epoch selection, which the fixed-epoch reproduction bakes in).
func trainPool(s dataset.Split) []*dataset.Sample {
	return append(append([]*dataset.Sample{}, s.Train...), s.Val...)
}

// NegativeFraction is the share of background-only screens mixed into the
// training pool. Real AUI screenshots contain large benign regions (the app
// behind the popup); synthetic full-screen ads cover theirs, so explicit
// negatives restore the background diversity the objectness head needs to
// stay quiet on benign screens (Table VI's non-AUI column).
const NegativeFraction = 0.30

// withNegatives appends n*NegativeFraction negative samples to pool.
func withNegatives(pool []*dataset.Sample, cfg auigen.DatasetConfig, seed int64) []*dataset.Sample {
	n := int(float64(len(pool)) * NegativeFraction)
	negs := auigen.BuildNegativeSamples(seed, n, cfg)
	return append(pool, negs...)
}

// SetFloat injects a float model, bypassing loading/training (tests and
// ablation benches use it). It seeds the detector cache, so Float(),
// Device() and Detector("yolite") all reuse the injected model.
func (e *Env) SetFloat(m *yolite.Model) {
	if e.detectors == nil {
		e.detectors = map[string]detect.Detector{}
	}
	e.detectors["yolite"] = m
}

// Detector builds (or returns the cached) registry backend under the
// environment's dataset, weights and seed configuration. All model access
// in the experiment runners goes through here, so every backend — float,
// masked, int8, the R-CNN baselines, frauddroid — is selectable by name.
func (e *Env) Detector(name string) (detect.Detector, error) {
	if d, ok := e.detectors[name]; ok {
		return d, nil
	}
	d, err := detect.Build(name, e.buildContext(name))
	if err != nil {
		return nil, err
	}
	if e.detectors == nil {
		e.detectors = map[string]detect.Detector{}
	}
	e.detectors[name] = d
	return d, nil
}

// buildContext assembles the per-backend build inputs: the masked variant
// swaps in the text-masked pool at half depth, the int8 port reuses the
// float model, and everything else trains on the standard pool with
// negatives mixed in.
func (e *Env) buildContext(name string) detect.BuildContext {
	ctx := detect.BuildContext{
		WeightsDir:  e.WeightsDir,
		SaveWeights: e.WeightsDir != "" && !e.Quick,
		Epochs:      e.epochs(),
		Screen:      e.CurrentScreen,
		Logf:        e.verbose,
	}
	switch name {
	case "yolite-masked":
		// The masked variant exists to show parity with the unmasked model
		// (Table IV), not to maximise accuracy; when no pretrained weights
		// exist it trains at half depth to bound the harness runtime.
		ctx.Epochs = max(8, e.epochs()/2)
		ctx.Samples = func() []*dataset.Sample {
			cfg := e.cfg
			cfg.MaskText = true
			pool := trainPool(e.MaskedSplit())
			if !e.Quick && len(pool) > 500 {
				pool = pool[:500]
			}
			return withNegatives(pool, cfg, MaskedSeed+1)
		}
	case "yolite-int8":
		ctx.Base = e.Float()
		// Calibration only needs a handful of images; the builder truncates.
		ctx.Samples = func() []*dataset.Sample { return trainPool(e.split) }
	default:
		ctx.Samples = func() []*dataset.Sample {
			return withNegatives(trainPool(e.split), e.cfg, DatasetSeed+1)
		}
	}
	return ctx
}

// mustDetector is Detector for the built-in names whose builders cannot
// fail under an Env (their contexts always carry samples).
func (e *Env) mustDetector(name string) detect.Detector {
	d, err := e.Detector(name)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return d
}

// Float returns the server-side float model, loading pretrained weights when
// available and training otherwise.
func (e *Env) Float() *yolite.Model { return e.mustDetector("yolite").(*yolite.Model) }

// Masked returns the model trained on text-masked screens.
func (e *Env) Masked() *yolite.Model { return e.mustDetector("yolite-masked").(*yolite.Model) }

// Device returns the int8-ported on-device model.
func (e *Env) Device() *quant.Model { return e.mustDetector("yolite-int8").(*quant.Model) }

// CurrentScreen returns the screen of the device run in progress (nil
// outside device experiments); metadata-based detectors read it instead of
// pixels.
func (e *Env) CurrentScreen() *uikit.Screen { return e.curScreen }

// Table is a formatted experiment result.
type Table struct {
	ID     string // "Table III", "Figure 8", ...
	Title  string
	Header []string
	Rows   [][]string
	// PaperNote summarises what the paper reports, for EXPERIMENTS.md.
	PaperNote string
}

// Format renders the table as aligned monospace text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.PaperNote != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.PaperNote)
	}
	return b.String()
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
func f3(f float64) string  { return fmt.Sprintf("%.3f", f) }
func f2(f float64) string  { return fmt.Sprintf("%.2f", f) }
func itoa(i int) string    { return fmt.Sprintf("%d", i) }
