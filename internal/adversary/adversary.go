// Package adversary runs the black-box evasion loop against the detector:
// a seeded hill-climb over internal/auigen's knob vector, guided only by the
// detector's confidence on the perturbed screens — the LibPass-style
// function-preserving attack, pointed at our own model.
//
// Determinism contract (the same one internal/faults and internal/fleet
// keep): the entire search is a pure function of Config. Restart r draws
// from its own splitmix64 stream derived from (Seed, r), screens regenerate
// from their seeds, and every proposal is recorded — so a run replays
// bit-identically, trajectories diff exactly, and the corpus can be checked
// in as (seed, knobs) recipes instead of renders.
package adversary

import (
	"math"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/sim"
	"repro/internal/yolite"
)

// Objective scores one attacked screen; lower means more evasive. The
// default is mean detector confidence over the ground-truth boxes.
type Objective func(at *auigen.Attacked) float64

// Config parameterises one search run.
type Config struct {
	// Seed pins the whole run; every derived stream comes from it.
	Seed int64
	// Restarts is the number of independent hill-climbs (default 3).
	Restarts int
	// Iterations per restart (default 40).
	Iterations int
	// Screens are the generation seeds of the base screens the objective
	// averages over. Required.
	Screens []int64
	// Data configures rendering.
	Data auigen.DatasetConfig
	// Detector is the attacked backend, used by the default objective.
	Detector yolite.Predictor
	// ProbeThresh is the confidence floor the default objective probes at
	// (default 0.05) — far below the operating threshold, so the search
	// sees the confidence slope before recall moves.
	ProbeThresh float64
	// Objective overrides the default confidence objective (tests inject a
	// cheap deterministic stand-in here).
	Objective Objective
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) restarts() int {
	if c.Restarts == 0 {
		return 3
	}
	return c.Restarts
}

func (c Config) iterations() int {
	if c.Iterations == 0 {
		return 40
	}
	return c.Iterations
}

func (c Config) probeThresh() float64 {
	if c.ProbeThresh == 0 {
		return 0.05
	}
	return c.ProbeThresh
}

func (c Config) objective() Objective {
	if c.Objective != nil {
		return c.Objective
	}
	return ConfidenceObjective(c.Detector, c.probeThresh())
}

// matchIoU is the loose localisation gate the objective uses to credit a
// detection to a truth box — deliberately looser than the eval threshold so
// confidence keeps flowing while the box drifts.
const matchIoU = 0.25

// ConfidenceObjective scores a screen as the mean, over all ground-truth
// boxes, of the best same-class detection confidence overlapping the box
// (zero when nothing fires). This is all a black-box attacker can observe.
func ConfidenceObjective(p yolite.Predictor, probeThresh float64) Objective {
	return func(at *auigen.Attacked) float64 {
		if len(at.Sample.Boxes) == 0 {
			return 0
		}
		dets := yolite.PredictInput(p, at.Sample.Input, probeThresh)
		total := 0.0
		for _, b := range at.Sample.Boxes {
			best := 0.0
			for _, d := range dets {
				if d.Class != b.Class {
					continue
				}
				if d.B.IoU(b.B) >= matchIoU && d.Score > best {
					best = d.Score
				}
			}
			total += best
		}
		return total / float64(len(at.Sample.Boxes))
	}
}

// Proposal is one recorded mutation attempt.
type Proposal struct {
	Iter       int          `json:"iter"`
	Knobs      auigen.Knobs `json:"knobs"`
	Confidence float64      `json:"confidence"`
	// Valid is false when a screen regenerated with these knobs failed the
	// asymmetry validator (the proposal is rejected outright).
	Valid    bool `json:"valid"`
	Accepted bool `json:"accepted"`
}

// Trajectory is one restart's full, replayable history.
type Trajectory struct {
	Restart         int          `json:"restart"`
	Proposals       []Proposal   `json:"proposals"`
	Final           auigen.Knobs `json:"final"`
	FinalConfidence float64      `json:"final_confidence"`
}

// Result is one search run.
type Result struct {
	// Clean is the objective at the zero knob vector.
	Clean float64 `json:"clean"`
	// Best is the most evasive valid knob vector found across restarts.
	Best           auigen.Knobs `json:"best"`
	BestConfidence float64      `json:"best_confidence"`
	Trajectories   []Trajectory `json:"trajectories"`
	// Evaluations counts objective calls (screen renders x restarts).
	Evaluations int `json:"evaluations"`
}

// Search runs the seeded hill-climb and returns the full replayable result.
func Search(cfg Config) *Result {
	if len(cfg.Screens) == 0 {
		panic("adversary: Config.Screens must not be empty")
	}
	obj := cfg.objective()
	evals := 0
	score := func(k auigen.Knobs) (float64, bool) {
		evals++
		total := 0.0
		for _, seed := range cfg.Screens {
			at := auigen.BuildAttacked(seed, k, cfg.Data)
			if at.Validate() != nil {
				return math.Inf(1), false
			}
			total += obj(at)
		}
		return total / float64(len(cfg.Screens)), true
	}

	clean, _ := score(auigen.Knobs{})
	res := &Result{Clean: clean, Best: auigen.Knobs{}, BestConfidence: clean}
	for r := 0; r < cfg.restarts(); r++ {
		stream := sim.Stream(cfg.Seed, r)
		cur, curConf := auigen.Knobs{}, clean
		traj := Trajectory{Restart: r}
		for it := 0; it < cfg.iterations(); it++ {
			cand := mutate(cur, &stream)
			conf, ok := score(cand.Knobs)
			accepted := ok && conf < curConf
			recorded := conf
			if !ok {
				recorded = 0 // keep trajectories JSON-safe; Valid:false marks it
			}
			traj.Proposals = append(traj.Proposals, Proposal{
				Iter: it, Knobs: cand.Knobs, Confidence: recorded, Valid: ok, Accepted: accepted,
			})
			if accepted {
				cur, curConf = cand.Knobs, conf
			}
		}
		traj.Final, traj.FinalConfidence = cur, curConf
		res.Trajectories = append(res.Trajectories, traj)
		if curConf < res.BestConfidence {
			res.Best, res.BestConfidence = cur, curConf
		}
		if cfg.Logf != nil {
			cfg.Logf("adversary: restart %d: confidence %.4f -> %.4f", r, clean, curConf)
		}
	}
	res.Evaluations = evals
	return res
}

// candidate wraps a mutated knob vector (kept as a struct so future
// mutation metadata has somewhere to live).
type candidate struct{ Knobs auigen.Knobs }

// mutateStep scales one mutation as a fraction of each knob's range.
const mutateStep = 0.35

// mutate perturbs 1-2 distinct knobs by a uniform step of up to mutateStep of
// each knob's range, then clamps back into the valid box.
func mutate(k auigen.Knobs, stream *sim.Splitmix) candidate {
	v := k.Vec()
	n := 1 + stream.Intn(2)
	for m := 0; m < n; m++ {
		i := stream.Intn(auigen.NumKnobs)
		lo, hi := auigen.KnobRange(i)
		v[i] += (stream.Float64()*2 - 1) * mutateStep * (hi - lo)
	}
	return candidate{Knobs: auigen.KnobsFromVec(v).Clamp()}
}

// EvalScreens renders the attacked screens for the given seeds and knob
// vector — the shared helper the eval layer and the hardening loop use to
// turn (seed, knobs) recipes back into screens.
func EvalScreens(seeds []int64, k auigen.Knobs, cfg auigen.DatasetConfig) []*auigen.Attacked {
	out := make([]*auigen.Attacked, 0, len(seeds))
	for _, s := range seeds {
		out = append(out, auigen.BuildAttacked(s, k, cfg))
	}
	return out
}

// Samples extracts the rendered dataset samples from attacked screens.
func Samples(screens []*auigen.Attacked) []*dataset.Sample {
	out := make([]*dataset.Sample, 0, len(screens))
	for _, at := range screens {
		out = append(out, at.Sample)
	}
	return out
}
