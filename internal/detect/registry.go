package detect

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/tensor"
	"repro/internal/uikit"
)

// BuildContext carries everything a Builder may need to produce a ready
// detector. Fields are optional; builders error when a field they require is
// missing.
type BuildContext struct {
	// WeightsDir, when non-empty, is consulted for pretrained weight files
	// (<name>.gob with dashes mapped to underscores) before any training.
	WeightsDir string
	// SaveWeights writes freshly trained weights back to WeightsDir.
	SaveWeights bool
	// Samples lazily supplies the training pool (and quantisation
	// calibration set) for backends that must train when no weights exist.
	Samples func() []*dataset.Sample
	// Epochs bounds training when the builder has to train; zero lets the
	// backend pick its default.
	Epochs int
	// Base, when non-nil, is an already-built detector that derived
	// backends (the int8 port) reuse instead of rebuilding it.
	Base Detector
	// Screen supplies the live screen for metadata-based detectors
	// (frauddroid), which read the view hierarchy instead of pixels.
	Screen func() *uikit.Screen
	// Logf receives progress messages; nil discards them.
	Logf func(format string, args ...any)
}

func (c BuildContext) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c BuildContext) samples() ([]*dataset.Sample, error) {
	if c.Samples == nil {
		return nil, fmt.Errorf("detect: build context supplies no training samples")
	}
	return c.Samples(), nil
}

// trainSeed seeds every builder that trains or initialises a model: the
// shared experiment model seed (experiments.ModelSeed).
const trainSeed = 7

// Builder constructs one backend from a build context.
type Builder func(ctx BuildContext) (Detector, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register adds a named backend to the registry. Registering a duplicate
// name panics: backends register from init functions, so a collision is a
// programming error, not a runtime condition.
func Register(name string, b Builder) {
	if name == "" || b == nil {
		panic("detect: Register requires a name and a builder")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("detect: duplicate detector registration: " + name)
	}
	registry[name] = b
}

// Build constructs the named backend. Unknown names list the registered
// alternatives, so CLI typos are self-explaining.
func Build(name string, ctx BuildContext) (Detector, error) {
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("detect: unknown detector %q (registered: %v)", name, Names())
	}
	d, err := b(ctx)
	if err != nil {
		return nil, err
	}
	// Backends with a fused inference form (the float detector folds conv +
	// batch-norm + activation into one-pass blocks) build it eagerly here, so
	// the first request a fresh replica serves does not pay the fold.
	if f, ok := d.(interface{ Fuse() }); ok {
		f.Fuse()
	}
	// Backends that pool their head maps (the float and int8 models) get a
	// private pool with the instance: every Build is one replica, and a
	// served model never runs the allocating forward because nobody
	// downstream remembered to install one. Their intermediates recycle
	// process-wide, whatever the pool.
	if p, ok := d.(interface{ SetPool(*tensor.Pool) }); ok {
		p.SetPool(tensor.NewPool())
	}
	return d, nil
}

// Names lists the registered backends, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
