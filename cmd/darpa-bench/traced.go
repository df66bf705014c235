package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// runTraced is the second pass over a workload: it replays the first
// traceItems corpus items at one caller through the workload's layer chain
// in-process, with a span around each call into a layer, and reads the
// counters the program exposes. End-to-end metrics are never taken from it.
func runTraced(ctx context.Context, name string, env runEnv) (*workloadResult, error) {
	res := newWorkloadResult(name, env)
	res.Traced = true
	t := newTracer()
	var err error
	switch name {
	case "audit-batch":
		err = tracedAudit(ctx, t, res, env)
	case "fleet-50k":
		err = tracedFleet(ctx, t, res, env)
	default:
		err = tracedServe(ctx, t, res, name, env)
	}
	if err != nil {
		return nil, err
	}
	// A layer this workload never calls spent nothing here.
	for _, name := range res.missing() {
		res.set(name, 0)
	}
	if env.traceFile != "" {
		if err := writeJSON(env.traceFile, t.spans); err != nil {
			return nil, err
		}
	}
	res.note("trace.spans", float64(len(t.spans)), "count")
	return res, nil
}

// replayBoth runs the chain unrecorded and then recorded (after a short
// unrecorded stretch that warms every pool), sets the chain's per-layer
// metrics and the tracing overhead, and returns the budget rows and the
// replayed model inputs.
func replayBoth(t *tracer, res *workloadResult, p *floatParts, fe frontEnd, items []chainItem) ([]budgetRow, []*tensor.Tensor) {
	replayChain(nil, p, fe, items[:min(32, len(items))])
	plain := replayChain(nil, p, fe, items)
	first := len(t.spans)
	traced := replayChain(t, p, fe, items)
	res.addOps("replay", len(items), len(traced.bad))
	for _, b := range traced.bad[:min(3, len(traced.bad))] {
		res.fail("replay: %s", b)
	}
	rows := chainMetrics(res, t.spans[first:], traced)
	without, with := median(plain.itemUS), median(traced.itemUS)
	res.set("bench.trace_overhead_share", (with-without)/without)
	res.note("replay.chain_p50_us", without, "us")
	return rows, traced.tensors
}

// storyVerdict answers the question the repo's records disagree on: is a
// full predict nearly three times its forward (ROADMAP and
// BENCH_kernels.json: 9.4 ms against 3.4 ms, "decode/refine dominant"), or
// are they within noise of each other (the sizing run)?
func storyVerdict(res *workloadResult) {
	fwd, prd := res.Metrics["yolite.forward_us"].Value, res.Metrics["yolite.predict_us"].Value
	post := res.Metrics["yolite.decode_us"].Value + res.Metrics["yolite.luma_us"].Value +
		res.Metrics["yolite.refine_us"].Value + res.Metrics["metrics.nms_us"].Value
	story := "the sizing run's story holds: post-processing is a few percent of a predict, and BENCH_kernels.json's 9.4 ms predict against a 3.4 ms forward does not reproduce"
	if prd > 2*fwd {
		story = "ROADMAP/BENCH_kernels.json's story holds: post-processing costs more than the forward"
	}
	res.Verdicts = append(res.Verdicts, fmt.Sprintf(
		"PredictTensor p50 %.0f us against Forward p50 %.0f us; decode+luma+refine+NMS p50 %.0f us — %s", prd, fwd, post, story))
}

// tracedServe: a short untraced HTTP stretch for the budget's total and the
// scheduler's counters, then the chain replay and the direct probes.
func tracedServe(ctx context.Context, t *tracer, res *workloadResult, name string, env runEnv) error {
	bin, err := buildServer()
	if err != nil {
		return err
	}
	spec := serveSpecs[name]
	l, err := newHTTPLoad(spec, env.seed, env.sz)
	if err != nil {
		return err
	}
	res.set("bench.corpus_s", l.corpusS)
	var counter atomic.Int64
	next := func() int { return int(counter.Add(1)-1) % len(l.corpus) }
	sz := env.sz
	sz.setupReps = 1
	srv, _, err := setUpServer(ctx, bin, l, sz, &counter)
	if err != nil {
		return err
	}
	defer srv.kill() // a no-op once stop has succeeded
	quarter := time.Duration(env.seconds / 4 * float64(time.Second))
	lat := closedLoop(ctx, "lat", latClients, quarter, nil, next, l.post)
	st0, err := srv.stats(ctx, l.client)
	if err != nil {
		return err
	}
	sat := closedLoop(ctx, "sat", satClients, quarter, nil, next, l.post)
	st1, err := srv.stats(ctx, l.client)
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.addPhase(lat)
	res.addPhase(sat)
	lats := sorted(lat.latenciesMS())
	if len(lats) == 0 {
		res.fail("no successful request in the latency stretch")
		return nil
	}
	p50 := median(lats)
	res.set("detect_p95_ms", percentile(lats, 95))
	res.set("client.p99_ms", percentile(lats, 99))
	res.set("client.max_ms", lats[len(lats)-1])
	res.set("client.samples", float64(len(lats)))
	res.note("detect_p50_ms", p50, "ms")
	if batches := st1.Batches - st0.Batches; batches > 0 {
		res.set("serve.batch_mean_items", float64(st1.Items-st0.Items)/float64(batches))
	}
	res.set("serve.batch_item_p50_us", float64(st1.Stages["serve-batch"].P50US))
	if len(st0.Replicas) > 0 && len(st1.Replicas) > 0 {
		res.set("serve.replica_busy_share", (st1.Replicas[0].Busy-st0.Replicas[0].Busy).Seconds()/sat.wall.Seconds())
	}

	p, err := newFloatParts()
	if err != nil {
		return err
	}
	fe := frontRawPNG
	if spec.jsonBody {
		fe = frontJSON
	}
	items := make([]chainItem, min(env.sz.traceItems, len(l.corpus)))
	for i := range items {
		items[i] = chainItem{body: l.bodies[i], want: l.want[i]}
	}
	rows, xs := replayBoth(t, res, p, fe, items)
	if err := probeDirect(ctx, t, res, p, xs, true); err != nil {
		return err
	}
	storyVerdict(res)

	// The budget: everything the replay can attribute, in path order, against
	// the latency a client saw. What is left is net/http on both sides, the
	// loopback, the handler's own glue, the SSE publish and the client.
	rows = append(rows,
		budgetRow{Layer: "detect (seam)", SelfUS: res.Metrics["detect.seam_overhead_ns"].Value / 1000},
		budgetRow{Layer: "serve (batch wait, hand-offs)", SelfUS: res.Metrics["serve.overhead_us"].Value})
	attributed := 0.0
	for i := range rows {
		rows[i].Share = rows[i].SelfUS / 1000 / p50
		attributed += rows[i].SelfUS / 1000
	}
	res.set("budget.attributed_ms", attributed)
	res.set("budget.unattributed_ms", p50-attributed)
	res.Budget = append(rows,
		budgetRow{Layer: "budget.attributed", SelfUS: attributed * 1000, Share: attributed / p50},
		budgetRow{Layer: "budget.unattributed", SelfUS: (p50 - attributed) * 1000, Share: (p50 - attributed) / p50},
		budgetRow{Layer: "detect_p50_ms (client)", SelfUS: p50 * 1000, Share: 1})
	return nil
}

// tracedAudit replays audit-batch's chain — canvas, downscale, tensor,
// predict — and probes what only this workload uses: the N = 8 batched
// forward and the int8 backend.
func tracedAudit(ctx context.Context, t *tracer, res *workloadResult, env runEnv) error {
	t0 := time.Now()
	corpus, err := buildCorpus(env.seed, resAudit, env.sz.corpusAUI, env.sz.corpusBenign)
	if err != nil {
		return err
	}
	corpus = corpus[:min(env.sz.traceItems, len(corpus))]
	p, err := newFloatParts()
	if err != nil {
		return err
	}
	want := reference(p.m, corpus)
	res.set("bench.corpus_s", time.Since(t0).Seconds())

	items := make([]chainItem, len(corpus))
	for i, sc := range corpus {
		items[i] = chainItem{canvas: sc.canvas, want: want[i]}
	}
	_, xs := replayBoth(t, res, p, frontCanvas, items)
	if err := probeDirect(ctx, t, res, p, xs, false); err != nil {
		return err
	}
	storyVerdict(res)
	// Int8 agreement is judged in model-input coordinates, where both
	// backends answer before the audit scales boxes to the screen.
	wantModel := make([][]metrics.Detection, len(xs))
	for i, x := range xs {
		wantModel[i] = p.m.PredictTensor(x, 0, yolite.DefaultConfThresh)
	}
	return probeBatchAndQuant(t, res, p, xs, wantModel)
}

// tracedFleet reads fleet-50k's story out of fleet.Result and the runtime:
// the cache and the clock are probed on their own, one full run gives the
// counters, and a run at a tenth of the devices gives the scale ratio.
func tracedFleet(ctx context.Context, t *tracer, res *workloadResult, env runEnv) error {
	t0 := time.Now()
	corpus, err := buildCorpus(env.seed, resModel, env.sz.corpusAUI, env.sz.corpusBenign)
	if err != nil {
		return err
	}
	corpus = corpus[:min(env.sz.traceItems, len(corpus))]
	xs := make([]*tensor.Tensor, len(corpus))
	for i, sc := range corpus {
		xs[i] = yolite.CanvasToTensor(sc.canvas)
	}
	res.set("bench.corpus_s", time.Since(t0).Seconds())
	p, err := newFloatParts()
	if err != nil {
		return err
	}
	if err := probeCache(t, res, p, xs); err != nil {
		return err
	}
	probeSim(t, res, env.seed)
	if err := ctx.Err(); err != nil {
		return err
	}

	run := func(name string, devices int, memStats bool) (fleetMeasured, error) {
		id := t.begin("fleet.Run/"+name, -1, 0)
		m, _, err := runFleetOnce(fleetConfig(env, devices), memStats)
		t.end(id)
		if err == nil {
			res.addFleetLedger(name, m.res, env.seed)
		}
		return m, err
	}
	full, err := run("run", env.sz.fleetDevices, true)
	if err != nil {
		return err
	}
	probe, err := run("tenth", env.sz.fleetDevices/10, false)
	if err != nil {
		return err
	}
	fr := full.res
	if fr.Analyses == 0 || probe.res.Analyses == 0 {
		res.fail("no analysis completed")
		return nil
	}
	wall := fr.Wall.Seconds()
	rate := float64(fr.Analyses) / wall
	res.set("fleet.events_per_s", float64(fr.Events)/wall)
	res.set("fleet.superseded_share", float64(fr.Superseded)/float64(submitted(fr.Timings)))
	res.set("fleet.gc_count", float64(full.mem1.NumGC-full.mem0.NumGC))
	res.set("fleet.gc_pause_ms", float64(full.mem1.PauseTotalNs-full.mem0.PauseTotalNs)/1e6)
	res.set("fleet.heap_mb", float64(full.mem1.HeapSys)/(1<<20))
	res.set("fleet.scale_ratio", rate/(float64(probe.res.Analyses)/probe.res.Wall.Seconds()))
	if lookups := fr.CacheHits + fr.CacheMisses; lookups > 0 {
		res.set("detect.cache_hit_share", float64(fr.CacheHits)/float64(lookups))
	}
	s := fr.Serve
	if s.Batches > 0 {
		res.set("serve.batch_mean_items", float64(s.Items)/float64(s.Batches))
	}
	res.set("serve.batch_item_p50_us", us(fr.Timings.Stage("serve-batch").P50()))
	if len(s.Replicas) > 0 {
		res.set("serve.replica_busy_share", s.Replicas[0].Busy.Seconds()/wall)
	}
	if s.Offered > 0 {
		res.set("serve.cancelled_share", float64(s.Cancelled)/float64(s.Offered))
	}
	res.note("fleet_analyses_per_s", rate, "analyses/s")
	res.note("fleet.us_per_analysis", 1e6/rate, "us")
	res.note("fleet.forwards", float64(fr.CacheMisses), "count")
	return nil
}
