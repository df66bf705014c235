package adversary

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/auigen"
)

// cheapObjective is a deterministic detector stand-in: a smooth function of
// the knob vector and screen seed, cheap enough for property tests to run
// hundreds of searches. Lower |knobs| scores higher (like a real detector on
// a clean screen), so hill-climbing has a real slope to descend.
func cheapObjective(at *auigen.Attacked) float64 {
	v := at.Knobs.Vec()
	conf := 1.0
	for i, x := range v {
		lo, hi := auigen.KnobRange(i)
		conf -= 0.1 * math.Abs(x) / (hi - lo)
	}
	// Seed-dependent wobble keeps different screens from scoring identically.
	return conf + 0.01*math.Sin(float64(at.Seed))
}

func testConfig(seed int64) Config {
	return Config{
		Seed:       seed,
		Restarts:   2,
		Iterations: 25,
		Screens:    []int64{3, 4, 5},
		Objective:  cheapObjective,
	}
}

// TestSearchDeterminism is the replay property: the same seed reproduces the
// whole run bit-for-bit — every proposal, every confidence, the final knobs —
// and a different seed diverges.
func TestSearchDeterminism(t *testing.T) {
	r1 := Search(testConfig(99))
	r2 := Search(testConfig(99))
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed produced different search results")
	}
	// Spot-check the strongest form: the full confidence trace matches.
	for ti := range r1.Trajectories {
		for pi := range r1.Trajectories[ti].Proposals {
			a := r1.Trajectories[ti].Proposals[pi]
			b := r2.Trajectories[ti].Proposals[pi]
			if a != b {
				t.Fatalf("restart %d proposal %d diverged: %+v vs %+v", ti, pi, a, b)
			}
		}
	}
	r3 := Search(testConfig(100))
	if reflect.DeepEqual(r1.Trajectories, r3.Trajectories) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestSearchDescendsAndRecordsEverything(t *testing.T) {
	res := Search(testConfig(5))
	if res.BestConfidence > res.Clean {
		t.Fatalf("best %.4f worse than clean %.4f", res.BestConfidence, res.Clean)
	}
	cfg := testConfig(5)
	wantEvals := 1 + cfg.Restarts*cfg.Iterations // clean probe + every proposal
	if res.Evaluations != wantEvals {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, wantEvals)
	}
	for _, traj := range res.Trajectories {
		if len(traj.Proposals) != cfg.Iterations {
			t.Fatalf("restart %d recorded %d proposals, want %d", traj.Restart, len(traj.Proposals), cfg.Iterations)
		}
		// Accepted proposals must strictly descend within a restart.
		last := res.Clean
		for _, p := range traj.Proposals {
			if p.Accepted {
				if !p.Valid {
					t.Fatalf("accepted an invalid proposal: %+v", p)
				}
				if p.Confidence >= last {
					t.Fatalf("accepted non-descending proposal: %.4f after %.4f", p.Confidence, last)
				}
				last = p.Confidence
			}
		}
		if traj.FinalConfidence != last {
			t.Fatalf("final confidence %.4f != last accepted %.4f", traj.FinalConfidence, last)
		}
	}
}

func TestSearchPanicsWithoutScreens(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Search with no screens should panic")
		}
	}()
	Search(Config{Seed: 1, Objective: cheapObjective})
}

// loadCorpus reads a corpus written by Corpus.Save.
func loadCorpus(path string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Corpus
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("adversary: parsing corpus %s: %w", path, err)
	}
	return &c, nil
}

// TestCorpusValidity is the checked-in-corpus invariant: every (seed, knobs)
// recipe in testdata/corpus.json must regenerate into a screen that still
// passes the asymmetry validator with non-degenerate ground truth.
func TestCorpusValidity(t *testing.T) {
	c, err := loadCorpus(filepath.Join("testdata", "corpus.json"))
	if err != nil {
		t.Fatalf("loading checked-in corpus: %v", err)
	}
	if len(c.Entries) == 0 {
		t.Fatal("checked-in corpus is empty")
	}
	cfg := auigen.DatasetConfig{}
	for _, e := range c.Entries {
		at := auigen.BuildAttacked(e.Seed, e.Knobs, cfg)
		if err := at.Validate(); err != nil {
			t.Errorf("corpus seed %d no longer valid: %v", e.Seed, err)
			continue
		}
		if len(at.Sample.Boxes) == 0 {
			t.Errorf("corpus seed %d regenerated with no ground truth", e.Seed)
		}
		for i, b := range at.Sample.Boxes {
			if b.B.W <= 0 || b.B.H <= 0 {
				t.Errorf("corpus seed %d box %d degenerate: %+v", e.Seed, i, b.B)
			}
		}
		if e.Confidence > e.Clean {
			t.Errorf("corpus seed %d mined with confidence %.4f above clean %.4f", e.Seed, e.Confidence, e.Clean)
		}
	}
}

func TestMineFiltersWeakAndInvalid(t *testing.T) {
	cfg := Config{Seed: 1, Screens: []int64{1}, Objective: cheapObjective}
	// With the cheap objective, clean scores ~1.0 and the max-attack vector
	// scores lower; minDrop above the achievable drop must mine nothing.
	strong := auigen.Knobs{UPOAlpha: -0.85, AGOFade: 0.8, Texture: 1}
	if c := Mine(cfg, strong, []int64{10, 11, 12}, 10.0); len(c.Entries) != 0 {
		t.Fatalf("mined %d entries past an unachievable minDrop", len(c.Entries))
	}
	c := Mine(cfg, strong, []int64{10, 11, 12}, 0.01)
	if len(c.Entries) == 0 {
		t.Fatal("mined nothing despite a real confidence drop")
	}
	for _, e := range c.Entries {
		if e.Confidence > e.Clean-0.01 {
			t.Fatalf("mined entry without the required drop: %+v", e)
		}
	}
}

func TestCorpusSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "corpus.json")
	c := &Corpus{SearchSeed: 7, ProbeThresh: 0.05, Entries: []Entry{
		{Seed: 3, Knobs: auigen.Knobs{UPOAlpha: -0.5}, Confidence: 0.2, Clean: 0.9},
	}}
	if err := c.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := loadCorpus(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip changed corpus: %+v vs %+v", c, got)
	}
}
