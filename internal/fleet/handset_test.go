package fleet

import (
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/metrics"
)

// runHandset runs one handset for two simulated minutes on det and returns
// it with the truth labels its OnAnalysis hook was handed.
func runHandset(t *testing.T, det detect.Detector) (*Handset, []bool) {
	t.Helper()
	h := NewHandset(HandsetConfig{
		Seed: 42,
		App:  app.Config{Package: "com.example.shop", MeanAUIInterval: 10 * time.Second},
	})
	var labels []bool
	h.OnAnalysis = func(_ core.Analysis, aui bool) { labels = append(labels, aui) }
	h.Start(det)
	h.Run(2 * time.Minute)
	h.Stop()
	if len(labels) != h.Service.Stats().Analyses {
		t.Fatalf("hook saw %d analyses, the service completed %d", len(labels), h.Service.Stats().Analyses)
	}
	return h, labels
}

// TestHandsetLedgerCanFail: the handset's ledger is a join, not a count of
// flags. A backend that never flags (nothing, or an AGO alone) catches nothing
// and raises no false alarm, and every analysis that had a popup up is missed;
// one that answers a UPO everywhere is never quiet and never misses.
func TestHandsetLedgerCanFail(t *testing.T) {
	for _, stub := range quietStubs {
		h, labels := runHandset(t, stub)
		up := 0
		for _, aui := range labels {
			if aui {
				up++
			}
		}
		want := metrics.Confusion{AUIMissed: up, NonAUIPassed: len(labels) - up}
		if h.Verdicts != want || up == 0 || h.PopupsCaught != 0 {
			t.Fatalf("backend answering %v: verdicts %+v, %d popups caught; want %+v, 0", stub.dets, h.Verdicts, h.PopupsCaught, want)
		}
	}

	h, labels := runHandset(t, stubDetector{})
	v := h.Verdicts
	if v.AUIMissed != 0 || v.NonAUIPassed != 0 || v.AUIDetected == 0 || v.NonAUIFlagged == 0 ||
		v.AUIDetected+v.NonAUIFlagged != len(labels) {
		t.Fatalf("always-UPO backend: verdicts %+v over %d analyses", v, len(labels))
	}
	if shown := len(h.App.History()); h.PopupsCaught == 0 || h.PopupsCaught > shown || h.PopupsCaught > v.AUIDetected {
		t.Fatalf("%d popups caught of %d shown, %d caught analyses", h.PopupsCaught, shown, v.AUIDetected)
	}
}
