package experiments

// Recall under attack: the eval closing the adversarial loop. Clean and
// attacked screens regenerate deterministically from (seed, knobs) recipes,
// so every number here is reproducible from the documented search seed.
//
// The protocol is honest in two ways that matter: the eval seeds are
// disjoint from both the search screens and the mined corpus (the attack
// must transfer via the knob vector, and the hardened model has never seen
// the eval screens), and each backend is scored through the same
// strict-IoU evaluation the paper's tables use.

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

// RecallPoint is per-class and overall recall at one eval condition.
type RecallPoint struct {
	UPO float64 `json:"upo"`
	AGO float64 `json:"ago"`
	All float64 `json:"all"`
}

// AttackRow is one backend's clean-vs-attacked recall.
type AttackRow struct {
	Backend  string      `json:"backend"`
	Clean    RecallPoint `json:"clean"`
	Attacked RecallPoint `json:"attacked"`
}

// Drop returns the overall recall lost to the attack.
func (r AttackRow) Drop() float64 { return r.Clean.All - r.Attacked.All }

// recallPoint extracts per-class recall from an evaluation.
func recallPoint(e *metrics.Evaluation) RecallPoint {
	return RecallPoint{
		UPO: e.Class(dataset.ClassUPO).Recall(),
		AGO: e.Class(dataset.ClassAGO).Recall(),
		All: e.All().Recall(),
	}
}

// evalScreens scores p over attacked screens, invoking observe with each
// composed screen before predicting — the hook that lets metadata-reading
// backends (frauddroid, and ensembles containing it) see the view hierarchy
// the pixels came from.
func evalScreens(p detect.Detector, screens []*auigen.Attacked, iouThresh float64, observe func(*uikit.Screen)) *metrics.Evaluation {
	eval := metrics.NewEvaluation()
	for _, at := range screens {
		if observe != nil {
			observe(at.Screen)
		}
		eval.AddSample(yolite.PredictInput(p, at.Sample.Input, yolite.DefaultConfThresh), at.Sample.Boxes, iouThresh)
	}
	return eval
}

// RecallUnderAttack scores one backend on matched clean and attacked screen
// sets at the given IoU threshold.
func RecallUnderAttack(name string, p detect.Detector, clean, attacked []*auigen.Attacked, iouThresh float64, observe func(*uikit.Screen)) AttackRow {
	return AttackRow{
		Backend:  name,
		Clean:    recallPoint(evalScreens(p, clean, iouThresh, observe)),
		Attacked: recallPoint(evalScreens(p, attacked, iouThresh, observe)),
	}
}

// AttackTable formats recall-under-attack rows in the repo's table idiom.
func AttackTable(rows []AttackRow, iouThresh float64) *Table {
	t := &Table{
		ID:     "Adversary",
		Title:  fmt.Sprintf("recall under black-box knob attack (IoU %.2f)", iouThresh),
		Header: []string{"Backend", "Clean UPO", "Clean AGO", "Clean All", "Atk UPO", "Atk AGO", "Atk All", "Drop"},
		PaperNote: "No paper counterpart: DARPA does not evaluate evasion. " +
			"The attack mirrors LibPass-style black-box perturbation search.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Backend,
			fmt.Sprintf("%.3f", r.Clean.UPO), fmt.Sprintf("%.3f", r.Clean.AGO), fmt.Sprintf("%.3f", r.Clean.All),
			fmt.Sprintf("%.3f", r.Attacked.UPO), fmt.Sprintf("%.3f", r.Attacked.AGO), fmt.Sprintf("%.3f", r.Attacked.All),
			fmt.Sprintf("%.3f", r.Drop()),
		})
	}
	return t
}

// AttackScreenSets regenerates matched clean/attacked eval screen sets for
// the given seeds.
func AttackScreenSets(seeds []int64, best auigen.Knobs, cfg auigen.DatasetConfig) (clean, attacked []*auigen.Attacked) {
	clean = adversary.EvalScreens(seeds, auigen.Knobs{}, cfg)
	attacked = adversary.EvalScreens(seeds, best, cfg)
	return clean, attacked
}
