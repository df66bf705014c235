package adversary

// The mined corpus is checked in as (seed, knobs) recipes, not renders:
// BuildAttacked is deterministic, so ~100 bytes of JSON regenerate the exact
// screen, and the validity property test can re-run the asymmetry validator
// against what the recipes produce today — a regen that silently breaks the
// ground truth fails loudly instead of poisoning the fine-tune set.

import (
	"encoding/json"
	"os"
	"path/filepath"

	"repro/internal/auigen"
)

// Entry is one mined screen recipe with the confidences observed when it
// was mined (informational; the recipe alone regenerates the screen).
type Entry struct {
	Seed       int64        `json:"seed"`
	Knobs      auigen.Knobs `json:"knobs"`
	Confidence float64      `json:"confidence"`
	Clean      float64      `json:"clean"`
}

// Corpus is the checked-in set of evasive-but-valid screens.
type Corpus struct {
	// SearchSeed documents the search run that mined the corpus.
	SearchSeed int64 `json:"search_seed"`
	// ProbeThresh is the confidence floor the objective probed at.
	ProbeThresh float64 `json:"probe_thresh"`
	Entries     []Entry `json:"entries"`
}

// DefaultCorpusPath is where the mined corpus lives in the repo.
const DefaultCorpusPath = "internal/adversary/testdata/corpus.json"

// Mine renders each candidate seed with the best knob vector and keeps the
// screens that are still valid AUIs and strictly more evasive than their
// clean render (confidence dropped by at least minDrop, absolute). Screens
// the detector already missed clean carry no evasion signal and are skipped.
func Mine(cfg Config, best auigen.Knobs, seeds []int64, minDrop float64) *Corpus {
	obj := cfg.objective()
	c := &Corpus{SearchSeed: cfg.Seed, ProbeThresh: cfg.probeThresh()}
	for _, seed := range seeds {
		clean := obj(auigen.BuildAttacked(seed, auigen.Knobs{}, cfg.Data))
		if clean <= minDrop {
			continue
		}
		at := auigen.BuildAttacked(seed, best, cfg.Data)
		if at.Validate() != nil {
			continue
		}
		conf := obj(at)
		if conf > clean-minDrop {
			continue
		}
		c.Entries = append(c.Entries, Entry{Seed: seed, Knobs: best, Confidence: conf, Clean: clean})
	}
	return c
}

// Screens regenerates every corpus entry.
func (c *Corpus) Screens(cfg auigen.DatasetConfig) []*auigen.Attacked {
	out := make([]*auigen.Attacked, 0, len(c.Entries))
	for _, e := range c.Entries {
		out = append(out, auigen.BuildAttacked(e.Seed, e.Knobs, cfg))
	}
	return out
}

// Save writes the corpus as indented JSON, creating parent directories.
func (c *Corpus) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
