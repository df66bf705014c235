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
//
// AttackSweep is the whole loop behind darpa-eval -attack: search for an
// evasive knob vector against yolite, mine a corpus, measure recall under
// attack for every backend, fine-tune a hardened model on the corpus, and
// write BENCH_adversary.json. The sweep regenerates from its Seed S:
//
//	search screens   S+1   .. S+screens     guide the hill-climb
//	corpus seeds     S+200 .. S+200+corpus  mined into the fine-tune set
//	eval seeds       S+500 .. S+500+eval    held out from both of the above

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"

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

// evalScreens scores p over attacked screens. Pixel backends (observe nil)
// go through the one batched scorer. A metadata backend (frauddroid) reads
// the one live view hierarchy and answers batch slot 0 only, the seam's
// documented exception, so it is scored one screen at a time: observe hands
// it each composed screen before its pixels are predicted.
func evalScreens(p detect.Detector, screens []*auigen.Attacked, iouThresh float64, observe func(*uikit.Screen)) *metrics.Evaluation {
	if observe == nil {
		return yolite.Evaluate(p, adversary.Samples(screens), iouThresh)
	}
	eval := metrics.NewEvaluation()
	for _, at := range screens {
		observe(at.Screen)
		eval.AddSample(yolite.PredictInput(p, at.Sample.Input, yolite.DefaultConfThresh), at.Sample.Boxes, iouThresh)
	}
	return eval
}

// RecallUnderAttack scores one backend on matched clean and attacked screen
// sets at the given IoU threshold; observe is nil for a pixel backend and
// feeds a metadata backend its live screen (see evalScreens).
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

// AttackSweep parameterises the adversarial sweep. cmd/darpa-eval runs
// PaperAttackSweep; the fields stay so tests can size the sweep down.
type AttackSweep struct {
	Seed         int64
	Iters        int
	Restarts     int
	Screens      int
	EvalN        int
	CorpusN      int
	IoU          float64
	Weights      string
	Out          string // report path; empty skips the write
	CorpusPath   string
	WriteCorpus  bool
	SkipRCNN     bool
	HardenEpochs int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// attackIoU is the adversarial eval's matching threshold. It is 0.5 rather
// than the paper's 0.9: the knob attack legally moves and resizes the
// ground-truth boxes, so 0.9 would measure pixel-perfect localisation of
// perturbed geometry instead of the question that matters here — does the
// detector still fire on the dark pattern at all.
const attackIoU = 0.5

// PaperAttackSweep is the sweep BENCH_adversary.json records, from master
// seed seed: 3 restarts x 40 hill-climb iterations over 6 search screens, 64
// candidate seeds mined into the corpus, 80 held-out screens per
// recall-under-attack condition, 20 fine-tune epochs, matched at attackIoU.
// The caller sets where it reads and writes (Weights, Out, CorpusPath,
// WriteCorpus), SkipRCNN and Logf.
func PaperAttackSweep(seed int64) AttackSweep {
	return AttackSweep{
		Seed: seed, Iters: 40, Restarts: 3, Screens: 6, EvalN: 80, CorpusN: 64,
		IoU: attackIoU, HardenEpochs: 20,
	}
}

// command is the darpa-eval invocation that reruns the sweep, as the report
// records it: only the seed and SkipRCNN vary between PaperAttackSweep runs.
func (f AttackSweep) command() string {
	cmd := fmt.Sprintf("go run ./cmd/darpa-eval -attack -attack-seed %d", f.Seed)
	if f.SkipRCNN {
		cmd += " -attack-skip-rcnn"
	}
	return cmd
}

func (f AttackSweep) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

func seedRange(start int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out
}

// attackPool lazily builds the training pool backends fall back to when no
// pretrained weights exist (and the pool the RCNN baseline trains on).
func attackPool(cfg auigen.DatasetConfig) func() []*dataset.Sample {
	var pool []*dataset.Sample
	return func() []*dataset.Sample {
		if pool == nil {
			pool = auigen.BuildAUISamples(DatasetSeed, 240, cfg)
			n := int(float64(len(pool)) * NegativeFraction)
			pool = append(pool, auigen.BuildNegativeSamples(DatasetSeed+1, n, cfg)...)
		}
		return pool
	}
}

// Smoke is the CI smoke: a seeded 30-iteration attack against yolite must
// strictly decrease confidence, replay bit-identically under the same seed,
// and diverge under a different seed. Only Seed, Weights and Logf are read.
func (f AttackSweep) Smoke(w io.Writer) error {
	cfg := DataConfig()
	yl, err := detect.Build("yolite", detect.BuildContext{
		WeightsDir: f.Weights,
		Samples:    attackPool(cfg),
		Epochs:     10,
		Logf:       f.Logf,
	})
	if err != nil {
		return fmt.Errorf("building yolite: %w", err)
	}
	scfg := adversary.Config{
		Seed: f.Seed, Restarts: 1, Iterations: 30,
		Screens: seedRange(f.Seed+1, 3), Data: cfg, Detector: yl,
	}
	r1 := adversary.Search(scfg)
	r2 := adversary.Search(scfg)
	if !reflect.DeepEqual(r1, r2) {
		return fmt.Errorf("replay mismatch: same seed %d produced different trajectories", f.Seed)
	}
	scfg.Seed = f.Seed + 1
	r3 := adversary.Search(scfg)
	if reflect.DeepEqual(r1.Trajectories, r3.Trajectories) {
		return fmt.Errorf("seeds %d and %d produced identical trajectories", f.Seed, f.Seed+1)
	}
	if !(r1.BestConfidence < r1.Clean) {
		return fmt.Errorf("attack failed to decrease confidence: clean %.4f, best %.4f", r1.Clean, r1.BestConfidence)
	}
	fmt.Fprintf(w, "attack smoke PASS: confidence %.4f -> %.4f over %d iterations, replay bit-identical, seeds diverge\n",
		r1.Clean, r1.BestConfidence, scfg.Iterations)
	return nil
}

// benchAdversary is the BENCH_adversary.json shape.
type benchAdversary struct {
	Bench  string  `json:"bench"`
	Seed   int64   `json:"seed"`
	IoU    float64 `json:"iou"`
	Search struct {
		Restarts    int          `json:"restarts"`
		Iterations  int          `json:"iterations"`
		Screens     int          `json:"screens"`
		ProbeThresh float64      `json:"probe_thresh"`
		Clean       float64      `json:"clean_confidence"`
		Best        float64      `json:"best_confidence"`
		BestKnobs   auigen.Knobs `json:"best_knobs"`
		Evaluations int          `json:"evaluations"`
	} `json:"search"`
	Corpus struct {
		Path       string `json:"path"`
		Candidates int    `json:"candidates"`
		Mined      int    `json:"mined"`
	} `json:"corpus"`
	EvalScreens  int         `json:"eval_screens"`
	HardenEpochs int         `json:"harden_epochs"`
	Recall       []AttackRow `json:"recall"`
	// Gap accounting over the yolite -> yolite-hardened pair.
	CleanRecall    float64 `json:"clean_recall"`
	AttackedRecall float64 `json:"attacked_recall"`
	HardenedRecall float64 `json:"hardened_recall"`
	GapRecovered   float64 `json:"gap_recovered"`
	Command        string  `json:"command"`
}

// Run performs the sweep, printing the recall table and the gap summary to
// w, and writes the report to Out when it is set.
func (f AttackSweep) Run(w io.Writer) error {
	b, err := f.sweep(w)
	if err != nil || f.Out == "" {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("marshalling bench: %w", err)
	}
	if err := os.WriteFile(f.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	f.logf("wrote %s", f.Out)
	return nil
}

func (f AttackSweep) sweep(w io.Writer) (*benchAdversary, error) {
	cfg := DataConfig()
	var cur *uikit.Screen
	bctx := detect.BuildContext{
		WeightsDir: f.Weights,
		Samples:    attackPool(cfg),
		Epochs:     10,
		Screen:     func() *uikit.Screen { return cur },
		Logf:       f.Logf,
	}
	yl, err := detect.Build("yolite", bctx)
	if err != nil {
		return nil, fmt.Errorf("building yolite: %w", err)
	}
	ylm, ok := yl.(*yolite.Model)
	if !ok {
		return nil, fmt.Errorf("yolite backend is %T, cannot fine-tune", yl)
	}
	fd, err := detect.Build("frauddroid", bctx)
	if err != nil {
		return nil, fmt.Errorf("building frauddroid: %w", err)
	}

	// Search.
	scfg := adversary.Config{
		Seed: f.Seed, Restarts: f.Restarts, Iterations: f.Iters,
		Screens: seedRange(f.Seed+1, f.Screens), Data: cfg, Detector: yl,
		Logf: f.Logf,
	}
	f.logf("searching: %d restarts x %d iterations over %d screens (seed %d)...",
		scfg.Restarts, scfg.Iterations, len(scfg.Screens), f.Seed)
	res := adversary.Search(scfg)
	f.logf("search done: confidence %.4f -> %.4f (%d objective evaluations)",
		res.Clean, res.BestConfidence, res.Evaluations)

	// Mine the corpus.
	corpusSeeds := seedRange(f.Seed+200, f.CorpusN)
	corpus := adversary.Mine(scfg, res.Best, corpusSeeds, 0.10)
	f.logf("mined %d/%d evasive-and-valid screens", len(corpus.Entries), len(corpusSeeds))
	if f.WriteCorpus {
		if err := corpus.Save(f.CorpusPath); err != nil {
			return nil, fmt.Errorf("saving corpus: %w", err)
		}
		f.logf("wrote %s", f.CorpusPath)
	}

	// Recall under attack, per backend, on held-out screens.
	evalSeeds := seedRange(f.Seed+500, f.EvalN)
	clean, attacked := AttackScreenSets(evalSeeds, res.Best, cfg)
	rows := []AttackRow{RecallUnderAttack("yolite", yl, clean, attacked, f.IoU, nil)}
	if !f.SkipRCNN {
		rc, err := detect.Build("mask-rcnn-resnet50", detect.BuildContext{
			Samples: bctx.Samples, Epochs: 4, Logf: f.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("building rcnn: %w", err)
		}
		rows = append(rows, RecallUnderAttack(rc.Name(), rc, clean, attacked, f.IoU, nil))
	}
	rows = append(rows, RecallUnderAttack("frauddroid", fd, clean, attacked, f.IoU, func(s *uikit.Screen) { cur = s }))

	// Harden on the mined corpus plus the clean renders of the same seeds.
	minedSeeds := make([]int64, 0, len(corpus.Entries))
	for _, e := range corpus.Entries {
		minedSeeds = append(minedSeeds, e.Seed)
	}
	// Train against every restart's final vector, not just the single best —
	// the hardened model has to close the gap against the attack *family*,
	// and single-vector fine-tuning overfits one perturbation direction.
	attackedTrain := corpus.Screens(cfg)
	for _, traj := range res.Trajectories {
		if traj.Final == res.Best || traj.Final == (auigen.Knobs{}) {
			continue
		}
		for _, at := range adversary.EvalScreens(minedSeeds, traj.Final, cfg) {
			if at.Validate() == nil {
				attackedTrain = append(attackedTrain, at)
			}
		}
	}
	f.logf("fine-tuning on %d attacked + %d clean screens (%d epochs)...",
		len(attackedTrain), len(minedSeeds), f.HardenEpochs)
	cleanTrain := adversary.Samples(adversary.EvalScreens(minedSeeds, auigen.Knobs{}, cfg))
	hardened, err := adversary.Harden(ylm, attackedTrain, cleanTrain, adversary.HardenConfig{
		Epochs: f.HardenEpochs, Seed: ModelSeed,
		Progress: func(ep int, l float64) {
			if ep%4 == 0 {
				f.logf("  harden epoch %d loss %.3f", ep, l)
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("hardening: %w", err)
	}
	rows = append(rows, RecallUnderAttack("yolite-hardened", hardened, clean, attacked, f.IoU, nil))

	fmt.Fprintln(w, AttackTable(rows, f.IoU).Format())

	yr, hr := rows[0], rows[len(rows)-1]
	gap := yr.Clean.All - yr.Attacked.All
	recovered := hr.Attacked.All - yr.Attacked.All
	frac := 0.0
	if gap > 0 {
		frac = recovered / gap
	}
	fmt.Fprintf(w, "attack:  clean %.3f -> attacked %.3f (drop %.3f)\n", yr.Clean.All, yr.Attacked.All, gap)
	fmt.Fprintf(w, "defense: hardened attacked recall %.3f, recovered %.0f%% of the gap (hardened clean %.3f)\n",
		hr.Attacked.All, frac*100, hr.Clean.All)
	if gap <= 0 {
		f.logf("WARNING: attack did not reduce recall")
	}
	if frac < 0.5 {
		f.logf("WARNING: hardening recovered < half the gap")
	}

	var b benchAdversary
	b.Bench = "adversary"
	b.Seed = f.Seed
	b.IoU = f.IoU
	b.Search.Restarts = scfg.Restarts
	b.Search.Iterations = scfg.Iterations
	b.Search.Screens = len(scfg.Screens)
	b.Search.ProbeThresh = 0.05
	b.Search.Clean = res.Clean
	b.Search.Best = res.BestConfidence
	b.Search.BestKnobs = res.Best
	b.Search.Evaluations = res.Evaluations
	b.Corpus.Path = f.CorpusPath
	b.Corpus.Candidates = len(corpusSeeds)
	b.Corpus.Mined = len(corpus.Entries)
	b.EvalScreens = f.EvalN
	b.HardenEpochs = f.HardenEpochs
	b.Recall = rows
	b.CleanRecall = yr.Clean.All
	b.AttackedRecall = yr.Attacked.All
	b.HardenedRecall = hr.Attacked.All
	b.GapRecovered = frac
	b.Command = f.command()
	return &b, nil
}
