package experiments

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rcnn"
	"repro/internal/study"
	"repro/internal/yolite"
)

// Table1 reproduces Table I: the distribution of AUI subjects in the
// generated D_aui.
func (e *Env) Table1() *Table {
	sp := e.Split()
	all := append(append(append([]*dataset.Sample{}, sp.Train...), sp.Val...), sp.Test...)
	counts := dataset.SubjectCounts(all)
	total := 0
	for _, c := range counts {
		total += c
	}
	t := &Table{
		ID:        "Table I",
		Title:     "Distribution of different types of AUI",
		Header:    []string{"AUI Type", "Number of instances", "Percentage"},
		PaperNote: "Advertisement 64.9%, Sales promotion 16.7%, Lucky money 12.2%, App upgrade 4.0%, Operation guide 1.5%, Feedback 0.4%, Permission 0.3% (N=1072)",
	}
	for _, subj := range dataset.Subjects {
		c := counts[subj]
		t.Rows = append(t.Rows, []string{subj.String(), itoa(c), pct(float64(c) / float64(total))})
	}
	t.Rows = append(t.Rows, []string{"Total", itoa(total), "100%"})
	return t
}

// Table2 reproduces Table II: the 6:2:2 split with per-set AGO/UPO box
// counts.
func (e *Env) Table2() *Table {
	rows := dataset.SplitStats(e.Split())
	t := &Table{
		ID:        "Table II",
		Title:     "Distribution of the ground-truth dataset D_aui",
		Header:    []string{"Set Type", "AGO", "UPO", "Total"},
		PaperNote: "train 453/657/642, val 150/223/215, test 141/222/215, total 744/1103/1072",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, itoa(r.AGO), itoa(r.UPO), itoa(r.Total)})
	}
	return t
}

// effectivenessRows renders UPO/AGO/All precision-recall-F1 rows for a
// detector on the given test samples.
func effectivenessRows(m yolite.Predictor, test []*dataset.Sample) [][]string {
	eval := yolite.Evaluate(m, test, metrics.PaperIoUThreshold)
	upo := eval.Class(dataset.ClassUPO)
	ago := eval.Class(dataset.ClassAGO)
	all := eval.All()
	return [][]string{
		{"UPO", f3(upo.Precision()), f3(upo.Recall()), f3(upo.F1())},
		{"AGO", f3(ago.Precision()), f3(ago.Recall()), f3(ago.F1())},
		{"All", f3(all.Precision()), f3(all.Recall()), f3(all.F1())},
	}
}

// Table3 reproduces Table III: the on-device (int8-ported) detector's
// effectiveness at IoU >= 0.9.
func (e *Env) Table3() *Table {
	return &Table{
		ID:        "Table III",
		Title:     "Overall effectiveness of DARPA (int8 on-device model, IoU >= 0.9)",
		Header:    []string{"AUI Type", "Precision", "Recall", "F1-score"},
		Rows:      effectivenessRows(e.Device(), e.Split().Test),
		PaperNote: "UPO 0.901/0.852/0.876, AGO 0.815/0.802/0.808, All 0.858/0.827/0.842",
	}
}

// Table4 reproduces Table IV: the float "server" model and the text-masked
// retrained model.
func (e *Env) Table4() *Table {
	t := &Table{
		ID:        "Table IV",
		Title:     "Effectiveness of the YOLOv5-analogue (server float model / text-masked)",
		Header:    []string{"Model", "AUI Type", "Precision", "Recall", "F1-score"},
		PaperNote: "server All 0.881/0.838/0.859; text-masked All 0.877/0.830/0.853",
	}
	for _, row := range effectivenessRows(e.Float(), e.Split().Test) {
		t.Rows = append(t.Rows, append([]string{"yolite (on server)"}, row...))
	}
	// The masked model is evaluated on the masked test split, mirroring the
	// paper's re-training protocol.
	for _, row := range effectivenessRows(e.Masked(), e.MaskedSplit().Test) {
		t.Rows = append(t.Rows, append([]string{"yolite (texts masked)"}, row...))
	}
	return t
}

// Table5 reproduces Table V: the four RCNN baselines against the one-stage
// detector. The relative detection speed is wall-clock, so it goes to the
// progress log (ms/image per model), not into the table: the markdown of
// two runs is byte-identical.
func (e *Env) Table5() *Table {
	t := &Table{
		ID:        "Table V",
		Title:     "Comparison between the one-stage detector and RCNN baselines (IoU >= 0.9)",
		Header:    []string{"Model", "Precision", "Recall", "F1-score"},
		PaperNote: "Faster+VGG 0.721, Faster+ResNet 0.720, Mask+VGG 0.781, Mask+ResNet 0.809, YOLOv5 0.859 F1; YOLO ~2.5x faster",
	}
	test := e.Split().Test
	pool := trainPool(e.Split())
	// The baselines exist for the comparison's shape; half the pool keeps
	// the four trainings tractable on one core.
	if !e.Quick && len(pool) > 450 {
		pool = pool[:450]
	}
	epochs := 6
	if e.Quick {
		epochs = 4
	}
	row := func(name string, m yolite.Predictor) {
		all := yolite.Evaluate(m, test, metrics.PaperIoUThreshold).All()
		t.Rows = append(t.Rows, []string{name, f3(all.Precision()), f3(all.Recall()), f3(all.F1())})
		e.verbose("Table V: %s %.2f ms/image", name, measureLatency(m, test))
	}
	for _, v := range rcnn.Variants {
		e.verbose("training %s...", v.Name())
		row(v.Name(), rcnn.Train(v, pool, rcnn.TrainConfig{Epochs: epochs, Seed: ModelSeed}))
	}
	row("yolite (YOLOv5 analogue)", e.Float())
	return t
}

// measureLatency times one detector call per image in milliseconds over a
// small subset, keeping the fraction: a call can take under a millisecond.
func measureLatency(m yolite.Predictor, samples []*dataset.Sample) float64 {
	n := len(samples)
	if n > 20 {
		n = 20
	}
	if n == 0 {
		return 0
	}
	start := time.Now()
	for _, s := range samples[:n] {
		yolite.PredictInput(m, s.Input, yolite.DefaultConfThresh)
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / float64(n)
}

// UserStudyTable reproduces the Section III-B findings.
func UserStudyTable() *Table {
	f := study.Analyze(study.Responses())
	t := &Table{
		ID:     "Section III-B",
		Title:  "User study findings (165 participants)",
		Header: []string{"Quantity", "Measured", "Paper"},
		PaperNote: fmt.Sprintf("Findings hold: F1=%v F2=%v F3=%v",
			f.Finding1Holds(), f.Finding2Holds(), f.Finding3Holds()),
	}
	t.Rows = [][]string{
		{"AUIs are misleading (Q1)", pct(f.MisledFrac), "94.5%"},
		{"Mean AGO accessibility rating", f2(f.MeanAGORating), "7.49"},
		{"Mean UPO accessibility rating", f2(f.MeanUPORating), "4.38"},
		{"UPO at least equally important (Q9)", pct(f.UPOImportantFrac), "72.7%"},
		{"Often trigger unintended clicks (Q2)", pct(f.OftenFrac), "77.0%"},
		{"Occasionally", pct(f.OccasionallyFrac), "20.6%"},
		{"Never", pct(f.NeverFrac), "2.4%"},
		{"Bothered, want to exit quickly (Q7)", pct(f.BotheredFrac), "83.0%"},
		{"Apps in China have more AUIs (Q8)", pct(f.CNMoreAUIFrac), "76.8%"},
		{"Mean rating for a countermeasure", f2(f.MeanSolutionRating), "7.64"},
		{"Ratings >= 9", itoa(f.Solution9Plus), "48"},
		{"Prefer highlighting options", pct(f.HighlightFrac), ">50%"},
	}
	return t
}

// LayoutTable reproduces the Section III-A placement statistics.
func (e *Env) LayoutTable() *Table {
	sp := e.Split()
	all := append(append(append([]*dataset.Sample{}, sp.Train...), sp.Val...), sp.Test...)
	st := dataset.MeasureLayout(all)
	return &Table{
		ID:     "Section III-A",
		Title:  "AUI layout patterns",
		Header: []string{"Quantity", "Measured", "Paper"},
		Rows: [][]string{
			{"AGO placed centrally", pct(st.AGOCentralFrac), "94.6%"},
			{"UPO placed in a corner", pct(st.UPOCornerFrac), "73.1%"},
		},
	}
}
