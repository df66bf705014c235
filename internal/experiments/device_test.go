package experiments

import (
	"os"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// TestHandsetLedgerMatchesInlineJoin is the differential for fleet.Handset's
// truth join: on three quick Table VI apps, the handset's ledger must equal an
// inline join written out here as the oracle — any UPO flags the screen, the
// app's current popup is the truth, and a popup counts as caught when any
// flagged analysis saw it.
func TestHandsetLedgerMatchesInlineJoin(t *testing.T) {
	if _, err := os.Stat("../../weights/yolite.gob"); err != nil {
		t.Skipf("no shipped weights: %v", err)
	}
	env := NewEnv(WithQuick(), WithWeightsDir("../../weights"))
	var total metrics.Confusion
	for idx := 0; idx < 3; idx++ {
		h := appHandset(idx, 0, core.ModeFull)
		var oracle metrics.Confusion
		caught := map[*app.AUIShowing]bool{}
		h.OnAnalysis = func(an core.Analysis, aui bool) {
			showing := h.App.Current()
			labelled := showing != nil
			flagged := false
			for _, d := range an.Detections {
				if d.Class == dataset.ClassUPO {
					flagged = true
					break
				}
			}
			oracle.Add(labelled, flagged)
			if labelled && flagged {
				caught[showing] = true
			}
			if aui != labelled {
				t.Errorf("app %d at %v: hook labelled %v, a popup up is %v", idx, an.At, aui, labelled)
			}
		}
		h.Start(env.runDetector())
		h.Run(appRunTime)
		h.Stop()
		popups := 0
		for _, shown := range h.App.History() {
			if caught[shown] {
				popups++
			}
		}
		if h.Verdicts != oracle || h.PopupsCaught != popups {
			t.Fatalf("app %d: handset ledger %+v with %d popups caught, inline join %+v with %d",
				idx, h.Verdicts, h.PopupsCaught, oracle, popups)
		}
		total.Merge(oracle)
	}
	if total.AUIDetected == 0 || total.NonAUIPassed == 0 {
		t.Fatalf("three apps exercised too little of the join: %+v", total)
	}
	t.Logf("three apps: %+v", total)
}
