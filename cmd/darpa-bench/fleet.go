package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

const (
	// fleetSeedOffset keeps the fleet's screen library apart from the corpus
	// the other workloads draw from the same -seed.
	fleetSeedOffset = 41
	// fleetSimPerSecond is how much simulated time one requested second of
	// run buys. fleet.Run takes a simulated duration, not a wall deadline,
	// and on the sizing box 50 000 devices advance about 0.4 simulated
	// seconds per wall second; fixing the ratio keeps the simulated work — and
	// with it the deterministic totals — a function of the arguments alone.
	fleetSimPerSecond = 0.4
)

// fleetGolden pins the deterministic totals of seed 1 at the sizes the
// harness runs.
//
//go:embed testdata/fleet_seed1.json
var fleetGoldenJSON []byte

type fleetTotals struct {
	Devices    int     `json:"devices"`
	SimSeconds float64 `json:"sim_seconds"`
	Events     int     `json:"events"`
	Analyses   int     `json:"analyses"`
	Superseded int     `json:"superseded"`
	Popups     int     `json:"popups"`
}

// submitted is how many analyses a run has started so far: fleet.analyze
// observes this stage once per analysis it hands to the worker pool.
func submitted(t *perfmodel.Timings) int { return t.Stage("fleet-modeled-analysis").Count }

func totalsOf(r *fleet.Result) fleetTotals {
	return fleetTotals{
		Devices: r.Devices, SimSeconds: r.Duration.Seconds(),
		Events: r.Events, Analyses: r.Analyses, Superseded: r.Superseded, Popups: r.Popups,
	}
}

// checkFleet applies the fleet correctness gate to one run's ledger.
func checkFleet(r *fleet.Result, seed int64) []string {
	var bad []string
	s := r.Serve
	if s.Offered != s.Admitted+s.Shed+s.Rejected {
		bad = append(bad, fmt.Sprintf("admission ledger: offered %d != admitted %d + shed %d + rejected %d", s.Offered, s.Admitted, s.Shed, s.Rejected))
	}
	submitted := submitted(r.Timings)
	if got := r.Analyses + r.Superseded + r.RateLimited + r.Shed + r.Degraded; got != submitted {
		bad = append(bad, fmt.Sprintf("conservation: %d analyses accounted for, %d submitted", got, submitted))
	}
	if seed != 1 {
		return bad
	}
	var golden []fleetTotals
	if err := json.Unmarshal(fleetGoldenJSON, &golden); err != nil {
		return append(bad, "testdata/fleet_seed1.json: "+err.Error())
	}
	got := totalsOf(r)
	for _, want := range golden {
		if want.Devices == got.Devices && want.SimSeconds == got.SimSeconds && want != got {
			bad = append(bad, fmt.Sprintf("seed 1 totals %+v, golden %+v", got, want))
		}
	}
	return bad
}

// fleetMeasured is one fleet.Run and what the process spent on it.
type fleetMeasured struct {
	res   *fleet.Result
	total time.Duration // the whole Run call; total - res.Wall is its set-up
	use   *usageLog     // a reading per window, ops = analyses submitted so far
	mem0  runtime.MemStats
	mem1  runtime.MemStats
}

// runFleetOnce builds a fresh replica and runs one fleet over it. The build
// time is returned separately: it is part of set-up, not of the run.
func runFleetOnce(cfg fleet.Config, memStats bool) (fleetMeasured, time.Duration, error) {
	var m fleetMeasured
	t0 := time.Now()
	reps, err := detect.BuildReplicas("yolite", detect.BuildContext{WeightsDir: weightsDir}, 1)
	if err != nil {
		return m, 0, err
	}
	// One warm-up batch, so the first simulated analysis does not pay the
	// first-forward costs. (fleet.Run installs the replica's pool itself.)
	if _, err := detect.PredictBatchCtx(context.Background(), reps[0], tensor.New(auditBatch, 3, yolite.InputH, yolite.InputW), yolite.DefaultConfThresh); err != nil {
		return m, 0, err
	}
	build := time.Since(t0)

	if memStats {
		runtime.GC()
		runtime.ReadMemStats(&m.mem0)
	}
	// fleet.Run is one call; progress inside it shows in the shared Timings
	// recorder, which counts every analysis as it is submitted.
	cfg.Timings = &perfmodel.Timings{}
	m.use = &usageLog{pid: os.Getpid(), ops: func() int { return submitted(cfg.Timings) }}
	stop, done := make(chan struct{}), make(chan struct{})
	go m.use.every(stop, done)
	t0 = time.Now()
	m.res, err = fleet.Run(cfg, reps)
	m.total = time.Since(t0)
	close(stop)
	<-done
	if err != nil {
		return m, 0, err
	}
	if memStats {
		runtime.ReadMemStats(&m.mem1)
	}
	return m, build, nil
}

func fleetConfig(env runEnv, devices int) fleet.Config {
	return fleet.Config{
		Devices:  devices,
		Duration: time.Duration(env.seconds * fleetSimPerSecond * env.sz.fleetSimScale * float64(time.Second)),
		Seed:     env.seed + fleetSeedOffset,
		Shape:    fleet.ShapeSteady,
	}
}

// fleetSetUps measures fleet set-up reps-1 times on runs too short to do any
// simulated work: replica build and warm-up, plus everything fleet.Run does
// before its clock starts (library render, serving stack, device schedule).
func fleetSetUps(cfg fleet.Config, reps int) ([]float64, error) {
	cfg.Duration = time.Millisecond
	var out []float64
	for i := 0; i < reps-1; i++ {
		m, build, err := runFleetOnce(cfg, false)
		if err != nil {
			return nil, err
		}
		out = append(out, (build + m.total - m.res.Wall).Seconds())
	}
	return out, nil
}

// fleetRecall is the recall of the float replica on this seed's AUI screens.
// fleet.Run keeps its screen library and ground truth to itself, so the
// quality of what the fleet is served by is measured next to it.
func fleetRecall(env runEnv) (recall float64, screens int, err error) {
	corpus, err := buildCorpus(env.seed, resModel, env.sz.corpusAUI, 0)
	if err != nil {
		return 0, 0, err
	}
	m, err := buildFloat()
	if err != nil {
		return 0, 0, err
	}
	recall, screens = recallIoU50(corpus, reference(m, corpus), nil)
	return recall, screens, nil
}

// addFleetLedger records one run's operations and applies the correctness
// gate. An analysis the stack refused or failed is a failed operation; a
// superseded one is the system working as designed.
func (r *workloadResult) addFleetLedger(phase string, fr *fleet.Result, seed int64) {
	r.addOps(phase, submitted(fr.Timings), fr.RateLimited+fr.Shed+fr.Degraded)
	for _, bad := range checkFleet(fr, seed) {
		r.fail("%s: %s", phase, bad)
	}
}

// rates turns the run's per-window readings into the two figures reported —
// analyses completed per wall second and CPU milliseconds per completed
// analysis — and says how much steal they were read under. The windows count
// submissions; the run's own ledger says what
// share of submissions completed (the rest were superseded), and that share
// carries over.
func (m fleetMeasured) rates() (analysesPerS, cpuMSPerAnalysis, stolen float64, err error) {
	ws, err := m.use.windows()
	if err != nil {
		return 0, 0, 0, err
	}
	completed := float64(m.res.Analyses) / float64(submitted(m.res.Timings))
	return atZeroSteal(ws, usageWindow.rate, false) * completed, atZeroSteal(ws, usageWindow.cpu, true) / completed, stolenOverBusy(ws), nil
}

// runFleet is the untraced pass of fleet-50k: one fleet.Run, 50 000 devices
// on one virtual clock, one replica, defaults otherwise.
func runFleet(ctx context.Context, env runEnv) (*workloadResult, error) {
	res := newWorkloadResult("fleet-50k", env)
	recall, screens, err := fleetRecall(env)
	if err != nil {
		return nil, err
	}
	cfg := fleetConfig(env, env.sz.fleetDevices)
	setups, err := fleetSetUps(cfg, env.sz.setupRepsInProc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, build, err := runFleetOnce(cfg, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, (build + m.total - m.res.Wall).Seconds())
	rss, err := procPeakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}

	fr := m.res
	res.addFleetLedger("run", fr, env.seed)
	if fr.Analyses == 0 {
		res.fail("no analysis completed")
		return res, nil
	}
	rate, cpu, stolen, err := m.rates()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups))
	res.set("fleet_analyses_per_s", rate)
	res.set("cpu_ms_per_op", cpu)
	res.set("peak_rss_mb", rss)
	res.set("recall_iou50", recall)
	res.aliasThroughput(rate)
	res.aliasLatency(1000 / rate)

	res.note("box.stolen_over_busy", stolen, "share")
	res.note("fleet.whole_run_analyses_per_s", float64(fr.Analyses)/fr.Wall.Seconds(), "analyses/s")
	res.note("fleet.devices", float64(fr.Devices), "count")
	res.note("fleet.sim_seconds", fr.Duration.Seconds(), "s")
	res.note("fleet.wall_s", fr.Wall.Seconds(), "s")
	res.note("fleet.events", float64(fr.Events), "count")
	res.note("fleet.analyses", float64(fr.Analyses), "count")
	res.note("fleet.superseded", float64(fr.Superseded), "count")
	res.note("fleet.popups", float64(fr.Popups), "count")
	res.note("fleet.forwards", float64(fr.CacheMisses), "count")
	res.note("recall.screens", float64(screens), "count")
	return res, nil
}
