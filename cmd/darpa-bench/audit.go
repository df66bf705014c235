package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/auigen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/render"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

const (
	// auditBatch is the batch size AuditScreensCtx forwards at.
	auditBatch = 8
	// auditSlice is how many screens one AuditScreensCtx call is handed:
	// eight full batches, about a quarter of a second of work, so a run has
	// enough calls for a median and stops close to its deadline.
	auditSlice = 8 * auditBatch
)

// calibrationSamples renders the screens the int8 port calibrates its
// activation scales on. The registry builder uses the first 16; the seed is
// the one the daemons pass.
func calibrationSamples() []*dataset.Sample {
	return auigen.BuildAUISamples(1, 16, auigen.DatasetConfig{})
}

// poolable is the private-pool seam of the float and int8 models.
type poolable interface{ SetPool(*tensor.Pool) }

// buildBackend builds one replica of a registered backend with a private
// activation pool, the way the serving layer provisions its replicas. calib
// is what the int8 port calibrates on; without it a backend that finds no
// weights fails instead of training.
func buildBackend(name string, calib []*dataset.Sample) (detect.Detector, error) {
	bctx := detect.BuildContext{WeightsDir: weightsDir}
	if calib != nil {
		bctx.Samples = func() []*dataset.Sample { return calib }
	}
	reps, err := detect.BuildReplicas(name, bctx, 1)
	if err != nil {
		return nil, err
	}
	if p, ok := reps[0].(poolable); ok {
		p.SetPool(tensor.NewPool())
	}
	return reps[0], nil
}

// auditBackends is the in-process program set-up of audit-batch: both
// backends built (BuildReplicas fuses the float one) and one warm-up batch
// through each.
func auditBackends(ctx context.Context, calib []*dataset.Sample, warm []*render.Canvas) (float, int8 detect.Detector, err error) {
	if float, err = buildBackend("yolite", calib); err != nil {
		return nil, nil, err
	}
	if int8, err = buildBackend("yolite-int8", calib); err != nil {
		return nil, nil, err
	}
	for _, det := range []detect.Detector{float, int8} {
		if _, err := core.AuditScreensCtx(ctx, det, warm, yolite.DefaultConfThresh, auditBatch); err != nil {
			return nil, nil, err
		}
	}
	return float, int8, nil
}

// canvases returns the corpus screens as the slice AuditScreensCtx takes.
func canvases(corpus []screen) []*render.Canvas {
	out := make([]*render.Canvas, len(corpus))
	for i, sc := range corpus {
		out[i] = sc.canvas
	}
	return out
}

// runAudit is the untraced pass of audit-batch: core.AuditScreensCtx in a
// closed loop from one goroutine, the first half of the run on the float
// backend and the second on int8. No HTTP, no scheduler, no cache.
func runAudit(ctx context.Context, env runEnv) (*workloadResult, error) {
	res := newWorkloadResult("audit-batch", env)
	t0 := time.Now()
	corpus, err := buildCorpus(env.seed, resAudit, env.sz.corpusAUI, env.sz.corpusBenign)
	if err != nil {
		return nil, err
	}
	if len(corpus)%auditSlice != 0 {
		return nil, fmt.Errorf("corpus of %d screens is not a whole number of %d-screen slices", len(corpus), auditSlice)
	}
	shots := canvases(corpus)
	refModel, err := buildFloat()
	if err != nil {
		return nil, err
	}
	want := reference(refModel, corpus)
	calib := calibrationSamples()
	corpusS := time.Since(t0).Seconds()

	var setups []float64
	var float, int8 detect.Detector
	for rep := 0; rep < env.sz.setupRepsInProc; rep++ {
		t0 := time.Now()
		if float, int8, err = auditBackends(ctx, calib, shots[:auditBatch]); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	seen := make([]bool, len(corpus))
	first := make([][]metrics.Detection, len(corpus)) // int8: each screen's first answer
	slices := len(corpus) / auditSlice
	half := time.Duration(env.seconds / 2 * float64(time.Second))
	audit := func(det detect.Detector, check func(i int, got []metrics.Detection) error) func(context.Context, int) (time.Duration, error) {
		return func(ctx context.Context, call int) (time.Duration, error) {
			lo := call % slices * auditSlice
			t0 := time.Now()
			out, err := core.AuditScreensCtx(ctx, det, shots[lo:lo+auditSlice], yolite.DefaultConfThresh, auditBatch)
			lat := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if len(out) != auditSlice {
				return 0, fmt.Errorf("slice at %d: %d results for %d screens", lo, len(out), auditSlice)
			}
			for j, got := range out {
				if err := check(lo+j, got); err != nil {
					return 0, err
				}
			}
			return lat, nil
		}
	}
	// Float: the batched result must equal the per-item reference.
	checkFloat := func(i int, got []metrics.Detection) error {
		if !sameDetections(got, want[i]) {
			return fmt.Errorf("screen %d: batched %v, per-item reference %v", i, got, want[i])
		}
		seen[i] = true
		return nil
	}
	// Int8 has no float-equal reference; its answers must be well-formed and
	// the same every time a screen comes round.
	checkInt8 := func(i int, got []metrics.Detection) error {
		switch {
		case !detect.ValidDetections(got):
			return fmt.Errorf("screen %d: malformed int8 detections %v", i, got)
		case first[i] == nil:
			first[i] = append([]metrics.Detection{}, got...)
		case !sameDetections(got, first[i]):
			return fmt.Errorf("screen %d: int8 answered %v, earlier %v", i, got, first[i])
		}
		return nil
	}

	calls := 0
	next := func() int { calls++; return calls - 1 }
	audited := func() int { return calls * auditSlice }
	floatUse, int8Use := &usageLog{pid: os.Getpid(), ops: audited}, &usageLog{pid: os.Getpid(), ops: audited}
	floatPhase := closedLoop(ctx, "float", 1, half, floatUse, next, audit(float, checkFloat))
	int8Phase := closedLoop(ctx, "int8", 1, half, int8Use, next, audit(int8, checkInt8))
	rss, err := procPeakRSSMiB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.addPhase(floatPhase)
	res.addPhase(int8Phase)
	if floatPhase.ok() == 0 || int8Phase.ok() == 0 {
		res.fail("no successful call in a half")
		return res, nil
	}
	floatW, err := floatUse.windows()
	if err != nil {
		return nil, err
	}
	int8W, err := int8Use.windows()
	if err != nil {
		return nil, err
	}
	// One caller, closed loop, and a reading is taken as a call returns: a
	// window holds a whole number of calls and lasts exactly as long as they
	// took, so its rate is not rounded to the call.
	floatRate, int8Rate := atZeroSteal(floatW, usageWindow.rate, false), atZeroSteal(int8W, usageWindow.rate, false)
	recall, screens := recallIoU50(corpus, want, seen)

	res.set("setup_s", median(setups))
	res.set("audit_screens_per_s", floatRate)
	res.set("audit_int8_screens_per_s", int8Rate)
	res.set("cpu_ms_per_op", (atZeroSteal(floatW, usageWindow.cpu, true)+atZeroSteal(int8W, usageWindow.cpu, true))/2)
	res.set("peak_rss_mb", rss)
	res.set("recall_iou50", recall)
	res.aliasThroughput(floatRate)
	res.aliasLatency(1000 / floatRate)

	res.note("bench.corpus_s", corpusS, "s")
	res.note("box.stolen_over_busy", stolenOverBusy(floatW, int8W), "share")
	res.note("float.calls", float64(floatPhase.ok()), "count")
	res.note("float.call_ms", median(floatPhase.latenciesMS()), "ms")
	res.note("int8.calls", float64(int8Phase.ok()), "count")
	res.note("int8.call_ms", median(int8Phase.latenciesMS()), "ms")
	res.note("recall.screens", float64(screens), "count")
	return res, nil
}
