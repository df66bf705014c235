package metrics

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func box(x, y, w, h float64) geom.BoxF { return geom.BoxF{X: x, Y: y, W: w, H: h} }

func TestCountsMetrics(t *testing.T) {
	c := Counts{TP: 8, FP: 2, FN: 4}
	if p := c.Precision(); p != 0.8 {
		t.Fatalf("precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-8.0/12.0) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	if f := c.F1(); math.Abs(f-16.0/22.0) > 1e-12 {
		t.Fatalf("f1 = %v", f)
	}
	if (Counts{}).Precision() != 0 || (Counts{}).Recall() != 0 || (Counts{}).F1() != 0 {
		t.Fatal("zero counts should yield zero metrics, not NaN")
	}
}

func TestMatchExact(t *testing.T) {
	truth := []dataset.Box{{Class: dataset.ClassUPO, B: box(80, 5, 8, 8)}}
	preds := []Detection{{Class: dataset.ClassUPO, B: box(80, 5, 8, 8), Score: 0.9}}
	c := Match(preds, truth, 0.9)[dataset.ClassUPO]
	if c.TP != 1 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("counts %+v", c)
	}
}

func TestMatchBelowThresholdIsFPAndFN(t *testing.T) {
	truth := []dataset.Box{{Class: dataset.ClassUPO, B: box(80, 5, 8, 8)}}
	preds := []Detection{{Class: dataset.ClassUPO, B: box(84, 9, 8, 8), Score: 0.9}} // IoU ~0.14
	c := Match(preds, truth, 0.9)[dataset.ClassUPO]
	if c.TP != 0 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestMatchClassMismatch(t *testing.T) {
	truth := []dataset.Box{{Class: dataset.ClassAGO, B: box(10, 10, 50, 20)}}
	preds := []Detection{{Class: dataset.ClassUPO, B: box(10, 10, 50, 20), Score: 0.9}}
	res := Match(preds, truth, 0.5)
	if res[dataset.ClassUPO].FP != 1 {
		t.Fatal("cross-class match should be FP")
	}
	if res[dataset.ClassAGO].FN != 1 {
		t.Fatal("unmatched truth should be FN")
	}
}

func TestMatchGreedyByScore(t *testing.T) {
	truth := []dataset.Box{{Class: dataset.ClassUPO, B: box(0, 0, 10, 10)}}
	preds := []Detection{
		{Class: dataset.ClassUPO, B: box(0, 0, 10, 10), Score: 0.5},
		{Class: dataset.ClassUPO, B: box(0, 0, 10, 10), Score: 0.9},
	}
	c := Match(preds, truth, 0.9)[dataset.ClassUPO]
	// The higher-score duplicate wins the single truth; the other is FP.
	if c.TP != 1 || c.FP != 1 || c.FN != 0 {
		t.Fatalf("counts %+v", c)
	}
}

func TestMatchEachTruthOnce(t *testing.T) {
	truth := []dataset.Box{
		{Class: dataset.ClassUPO, B: box(0, 0, 10, 10)},
		{Class: dataset.ClassUPO, B: box(50, 0, 10, 10)},
	}
	preds := []Detection{
		{Class: dataset.ClassUPO, B: box(0, 0, 10, 10), Score: 0.9},
		{Class: dataset.ClassUPO, B: box(50, 0, 10, 10), Score: 0.8},
	}
	c := Match(preds, truth, 0.9)[dataset.ClassUPO]
	if c.TP != 2 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("counts %+v", c)
	}
}

func TestEvaluationAccumulates(t *testing.T) {
	e := NewEvaluation()
	truth := []dataset.Box{
		{Class: dataset.ClassAGO, B: box(20, 100, 60, 16)},
		{Class: dataset.ClassUPO, B: box(85, 4, 7, 7)},
	}
	preds := []Detection{
		{Class: dataset.ClassAGO, B: box(20, 100, 60, 16), Score: 0.9},
		{Class: dataset.ClassUPO, B: box(0, 0, 5, 5), Score: 0.8}, // miss
	}
	e.AddSample(preds, truth, 0.9)
	e.AddSample(preds, truth, 0.9)
	if got := e.Class(dataset.ClassAGO); got.TP != 2 {
		t.Fatalf("AGO counts %+v", got)
	}
	if got := e.Class(dataset.ClassUPO); got.FP != 2 || got.FN != 2 {
		t.Fatalf("UPO counts %+v", got)
	}
	all := e.All()
	if all.TP != 2 || all.FP != 2 || all.FN != 2 {
		t.Fatalf("all counts %+v", all)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // detected AUI
	c.Add(true, false)  // missed AUI
	c.Add(false, true)  // false alarm
	c.Add(false, false) // correct pass
	if c.AUIDetected != 1 || c.AUIMissed != 1 || c.NonAUIFlagged != 1 || c.NonAUIPassed != 1 {
		t.Fatalf("confusion %+v", c)
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 {
		t.Fatalf("precision=%v recall=%v", c.Precision(), c.Recall())
	}
	if (Confusion{}).Precision() != 0 || (Confusion{}).Recall() != 0 {
		t.Fatal("empty confusion should yield zeros")
	}
}

// TestConfusionMerge: merging adds cell to cell, so two matrices merged
// equal one matrix fed both sets of screens.
func TestConfusionMerge(t *testing.T) {
	var a, b, both Confusion
	for _, s := range [][2]bool{{true, true}, {true, true}, {false, true}} {
		a.Add(s[0], s[1])
		both.Add(s[0], s[1])
	}
	for _, s := range [][2]bool{{true, false}, {false, false}, {false, false}, {true, true}} {
		b.Add(s[0], s[1])
		both.Add(s[0], s[1])
	}
	a.Merge(b)
	if a != both || a != (Confusion{AUIDetected: 3, AUIMissed: 1, NonAUIFlagged: 1, NonAUIPassed: 2}) {
		t.Fatalf("merged %+v, want %+v", a, both)
	}
	a.Merge(Confusion{})
	if a != both {
		t.Fatalf("merging an empty matrix changed %+v", a)
	}
}

func TestNMSSuppressesDuplicates(t *testing.T) {
	dets := []Detection{
		{Class: dataset.ClassUPO, B: box(10, 10, 10, 10), Score: 0.9},
		{Class: dataset.ClassUPO, B: box(11, 10, 10, 10), Score: 0.7}, // heavy overlap
		{Class: dataset.ClassUPO, B: box(60, 10, 10, 10), Score: 0.8}, // separate
	}
	kept := NMS(dets, 0.5)
	if len(kept) != 2 {
		t.Fatalf("kept %d, want 2", len(kept))
	}
	if kept[0].Score != 0.9 || kept[1].Score != 0.8 {
		t.Fatalf("kept wrong detections: %+v", kept)
	}
}

func TestNMSKeepsDifferentClasses(t *testing.T) {
	dets := []Detection{
		{Class: dataset.ClassUPO, B: box(10, 10, 10, 10), Score: 0.9},
		{Class: dataset.ClassAGO, B: box(10, 10, 10, 10), Score: 0.7},
	}
	if kept := NMS(dets, 0.5); len(kept) != 2 {
		t.Fatalf("class-aware NMS dropped a different class: %+v", kept)
	}
}

func TestNMSEmpty(t *testing.T) {
	if kept := NMS(nil, 0.5); len(kept) != 0 {
		t.Fatal("NMS(nil) should be empty")
	}
}

func TestNMSDoesNotMutateInput(t *testing.T) {
	dets := []Detection{
		{Class: dataset.ClassUPO, B: box(0, 0, 10, 10), Score: 0.1},
		{Class: dataset.ClassUPO, B: box(50, 0, 10, 10), Score: 0.9},
	}
	NMS(dets, 0.5)
	if dets[0].Score != 0.1 {
		t.Fatal("NMS reordered the caller's slice")
	}
}
