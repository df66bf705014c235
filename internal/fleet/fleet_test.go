package fleet

import (
	"context"
	"maps"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// stubDetector flags every screen as a UPO — deterministic and instant, so the tests exercise the event loop and serving plumbing
// rather than the model.
type stubDetector struct{}

func (stubDetector) Name() string { return "stub" }

func (stubDetector) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = []metrics.Detection{{Class: dataset.ClassUPO, Score: 0.99}}
	}
	return out, nil
}

// fixedStub answers every screen with the same detections. Neither nothing
// nor an AGO alone holds a UPO, so with either no analysis may flag.
type fixedStub struct{ dets []metrics.Detection }

func (fixedStub) Name() string { return "fixed-stub" }

func (f fixedStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = f.dets
	}
	return out, nil
}

// quietStubs are the backends that never flag: one answers nothing, one
// answers an AGO alone.
var quietStubs = []fixedStub{{}, {dets: []metrics.Detection{{Class: dataset.ClassAGO, Score: 0.99}}}}

// contentStub answers from the pixels — a UPO iff a sparse checksum of the
// item's float bits is odd, nothing otherwise — so an entry filed under the
// wrong key changes the verdicts and Bypassed instead of hiding behind a
// constant answer.
type contentStub struct{}

func (contentStub) Name() string { return "content-stub" }

func (contentStub) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([][]metrics.Detection, x.Shape[0])
	per := len(x.Data) / len(out)
	for i := range out {
		var sum uint32
		for j := i * per; j < (i+1)*per; j += 61 {
			sum += math.Float32bits(x.Data[j]) >> 8
		}
		if sum&1 == 1 {
			out[i] = []metrics.Detection{{Class: dataset.ClassUPO, Score: 0.99}}
		}
	}
	return out, nil
}

// smallConfig is a fleet sized for a unit test: enough devices and virtual
// time to exercise debounce, supersede, popups and bypass, small enough to
// run in well under a second.
func smallConfig(seed int64) Config {
	return Config{
		Devices:  150,
		Duration: 30 * time.Second,
		Seed:     seed,
		Bypass:   true,
		library:  4,
		workers:  8,
		maxBatch: 8,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	return runOn(t, cfg, stubDetector{})
}

func runOn(t *testing.T, cfg Config, d detect.Detector) *Result {
	t.Helper()
	res, err := Run(cfg, []detect.Detector{d})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// submitted is how many analyses a run started: analyze observes this stage
// once for each, whoever ends up answering it.
func submitted(r *Result) int { return r.Timings.Stage("fleet-modeled-analysis").Count }

// conserved fails the test unless every analysis started is accounted for
// exactly once.
func conserved(t *testing.T, r *Result) {
	t.Helper()
	if got := r.Analyses + r.Superseded + r.RateLimited + r.Shed + r.Degraded; got != submitted(r) {
		t.Fatalf("conservation: %d analyses accounted for, %d started: %+v", got, submitted(r), r)
	}
}

// deterministic extracts the replay-stable slice of a Result: everything the
// virtual clock alone decides, which includes who answered each analysis —
// the table, a leader in flight, or the stack. Wall time, throughput and
// serve-internal watermarks are excluded by construction.
func deterministic(r *Result) [16]int {
	v := r.Verdicts
	return [16]int{r.Events, r.Debounced, r.Analyses, r.Superseded,
		v.AUIDetected, v.NonAUIFlagged, v.AUIMissed, v.NonAUIPassed, r.PopupsCaught,
		r.Popups, r.Bypassed, r.RateLimited, r.Shed, r.CacheHits, r.CacheMisses, r.Coalesced}
}

// scored fails the test unless every completed analysis has exactly one
// verdict in the ledger.
func scored(t *testing.T, r *Result) {
	t.Helper()
	if v := r.Verdicts; v.AUIDetected+v.NonAUIFlagged+v.AUIMissed+v.NonAUIPassed != r.Analyses {
		t.Fatalf("verdicts %+v do not sum to %d completed analyses", v, r.Analyses)
	}
}

// TestReplayDeterminism pins satellite 1: same seed, same knobs → identical
// totals, bit for bit, however the worker goroutines interleaved; a different
// seed must produce a different run.
func TestReplayDeterminism(t *testing.T) {
	a := run(t, smallConfig(7))
	b := run(t, smallConfig(7))
	if deterministic(a) != deterministic(b) {
		t.Fatalf("same seed diverged:\n  a=%v\n  b=%v", deterministic(a), deterministic(b))
	}
	c := run(t, smallConfig(8))
	if deterministic(a) == deterministic(c) {
		t.Fatalf("different seeds replayed identically: %v", deterministic(a))
	}
	// The run must have actually exercised the machinery it claims to replay.
	if a.Events == 0 || a.Debounced == 0 || a.Analyses == 0 || a.Popups == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if a.RateLimited != 0 || a.Shed != 0 {
		t.Fatalf("admission interfered with an unlimited run: %+v", a)
	}
	// The stub answers a UPO everywhere, so every analysis flags: the truth
	// alone splits them, and nothing is missed or quiet. With bypass on, a
	// popup's first flagged analysis dismisses it, so each is caught once.
	scored(t, a)
	if want := (metrics.Confusion{AUIDetected: 358, NonAUIFlagged: 886}); a.Verdicts != want || a.PopupsCaught != 358 {
		t.Fatalf("seed 7 verdicts %+v, %d popups caught; pinned %+v, 358", a.Verdicts, a.PopupsCaught, want)
	}
}

// TestChaosReplayStability extends the satellite-1 contract to fault
// injection: a seeded chaos plan perturbs only completion *outcomes* (which
// worker carried which batch is real-scheduling noise, so the
// completed/degraded split may shift between runs), never the virtual-time
// simulation — with bypass off, the clock-driven totals and the
// completion-conservation sum must replay identically for the same fleet
// and chaos seeds.
func TestChaosReplayStability(t *testing.T) {
	mk := func() Config {
		cfg := smallConfig(19)
		cfg.Bypass = false
		// Fresh plan per run: a Plan carries call counters, so reuse would
		// hand run B a different fault sequence by construction.
		cfg.Plan = faults.NewPlan(99, faults.Rule{Kind: faults.Error, Rate: 0.3})
		return cfg
	}
	a := run(t, mk())
	b := run(t, mk())
	if a.Degraded == 0 || b.Degraded == 0 {
		t.Fatalf("chaos plan injected nothing: a=%+v b=%+v", a, b)
	}
	simA := [4]int{a.Events, a.Debounced, a.Popups, a.Superseded}
	simB := [4]int{b.Events, b.Debounced, b.Popups, b.Superseded}
	if simA != simB {
		t.Fatalf("virtual-time totals diverged under chaos:\n  a=%v\n  b=%v", simA, simB)
	}
	ca := a.Analyses + a.Degraded + a.RateLimited + a.Shed
	cb := b.Analyses + b.Degraded + b.RateLimited + b.Shed
	if ca != cb {
		t.Fatalf("completion conservation diverged under chaos: %d vs %d", ca, cb)
	}
}

// TestCorruptPlanDegradesEveryAnswer: when every backend answer carries a
// NaN box, no analysis may complete or be flagged — each one the stack
// answers degrades, and only a superseded one escapes that count.
func TestCorruptPlanDegradesEveryAnswer(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Plan = faults.NewPlan(5, faults.Rule{Kind: faults.Corrupt, Rate: 1})
	res := run(t, cfg)
	conserved(t, res)
	if calls := submitted(res) - res.Superseded; res.Degraded == 0 || res.Degraded != calls || res.Verdicts != (metrics.Confusion{}) || res.Analyses != 0 {
		t.Fatalf("%d stack answers, %d degraded, verdicts %+v, %d completed: want every answer degraded and none scored (%s)",
			calls, res.Degraded, res.Verdicts, res.Analyses, cfg.Plan)
	}
}

// TestVerdictLedgerCanFail: the ledger joins the backend's answers to the
// truth, so a backend that never flags is all missed and quiet, and one that
// always answers a UPO is all caught and false alarm.
func TestVerdictLedgerCanFail(t *testing.T) {
	for _, stub := range quietStubs {
		quiet := runOn(t, smallConfig(7), stub)
		scored(t, quiet)
		if v := quiet.Verdicts; v.AUIDetected != 0 || v.NonAUIFlagged != 0 || v.AUIMissed == 0 || v.NonAUIPassed == 0 ||
			quiet.PopupsCaught != 0 || quiet.Bypassed != 0 {
			t.Fatalf("backend answering %v: verdicts %+v, %d caught, %d bypassed", stub.dets, v, quiet.PopupsCaught, quiet.Bypassed)
		}
	}
	loud := run(t, smallConfig(7))
	scored(t, loud)
	if v := loud.Verdicts; v.AUIMissed != 0 || v.NonAUIPassed != 0 || v.AUIDetected == 0 || v.NonAUIFlagged == 0 {
		t.Fatalf("always-UPO backend: verdicts %+v", v)
	}
}

// TestSupersedeUnderChurn: burst churn arriving faster than the modeled
// analysis latency must invalidate in-flight cycles, exactly as
// core.Service does on-device.
func TestSupersedeUnderChurn(t *testing.T) {
	cfg := smallConfig(3)
	cfg.EventsPerMinute = 240 // storm: bursts every ~1.25s against 15-35ms analyses
	res := run(t, cfg)
	if res.Superseded == 0 {
		t.Fatalf("storm produced no superseded analyses: %+v", res)
	}
	if res.Debounced == 0 {
		t.Fatalf("storm produced no debounced events: %+v", res)
	}
}

// TestSpikeShapeAddsTraffic: the flash-crowd shape runs 5x rate over 10% of
// the run, so it must deliver measurably more events than steady at the same
// seed — and stay deterministic.
func TestSpikeShapeAddsTraffic(t *testing.T) {
	steady := run(t, smallConfig(11))
	spiky := smallConfig(11)
	spiky.Shape = ShapeSpike
	a := run(t, spiky)
	b := run(t, spiky)
	if deterministic(a) != deterministic(b) {
		t.Fatalf("shaped run diverged:\n  a=%v\n  b=%v", deterministic(a), deterministic(b))
	}
	if a.Events <= steady.Events {
		t.Fatalf("spike (%d events) did not exceed steady (%d events)", a.Events, steady.Events)
	}
}

// TestBypassDismissesPopups: with the stub flagging every screen, any popup
// analysed while showing must be auto-bypassed; with Bypass off none are.
func TestBypassDismissesPopups(t *testing.T) {
	withBypass := run(t, smallConfig(5))
	if withBypass.Bypassed == 0 {
		t.Fatalf("bypass enabled but no popups dismissed: %+v", withBypass)
	}
	if withBypass.Bypassed > withBypass.Popups {
		t.Fatalf("bypassed %d > shown %d", withBypass.Bypassed, withBypass.Popups)
	}
	off := smallConfig(5)
	off.Bypass = false
	if res := run(t, off); res.Bypassed != 0 {
		t.Fatalf("bypass disabled but %d popups dismissed", res.Bypassed)
	}
}

// TestResultFamilies: the ledger renders as valid Prometheus text with the
// key fleet series present, and the serve/timings families ride along.
func TestResultFamilies(t *testing.T) {
	res := run(t, smallConfig(13))
	text := metrics.TextString(res.Families())
	if n, err := metrics.ValidateText(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("families invalid (n=%d): %v\n%s", n, err, text)
	}
	for _, want := range []string{
		"darpa_fleet_devices 150",
		"darpa_fleet_sim_seconds 30",
		`darpa_fleet_events_total{kind="seen"}`,
		`darpa_fleet_analyses_total{outcome="completed"}`,
		`darpa_fleet_popups_total{kind="shown"}`,
		`darpa_fleet_popups_total{kind="caught"}`,
		`darpa_fleet_verdicts_total{verdict="caught"}`,
		`darpa_fleet_verdicts_total{verdict="false_alarm"}`,
		`darpa_fleet_verdicts_total{verdict="missed"}`,
		`darpa_fleet_verdicts_total{verdict="quiet"}`,
		`darpa_cache_requests_total{outcome="hit"}`,
		`darpa_cache_requests_total{outcome="coalesced"}`,
		`darpa_admission_requests_total{verdict="admitted"}`,
		"darpa_stage_latency_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing series %q in exposition:\n%s", want, text)
		}
	}
	if res.CacheHits == 0 {
		t.Fatalf("library of 8 screens over %d analyses produced no cache hits", res.Analyses)
	}
}

// TestTableLedgerExact: every analysis is answered by exactly one of the
// table, a leader in flight, or the stack, and the stack is offered the
// leaders and nothing else. Seed 24 leads each of its 2x4 screens once
// (CacheMisses == 8 says no leader was cancelled and re-led), so the serve
// ledger must agree to the request; a cancelled leader may be refused at the
// batcher's door before admission counts it, which is the slack the storm
// test's bound allows for.
func TestTableLedgerExact(t *testing.T) {
	cfg := smallConfig(24)
	res := run(t, cfg)
	conserved(t, res)
	if got := res.CacheHits + res.Coalesced + res.CacheMisses; got != submitted(res) {
		t.Fatalf("hits %d + coalesced %d + misses %d = %d, %d analyses started",
			res.CacheHits, res.Coalesced, res.CacheMisses, got, submitted(res))
	}
	if res.CacheMisses != 2*cfg.library {
		t.Fatalf("%d leaders for a library of 2x%d screens", res.CacheMisses, cfg.library)
	}
	if res.Serve.Offered != res.CacheMisses || res.Serve.Admitted != res.CacheMisses {
		t.Fatalf("stack offered %d, admitted %d; leaders %d", res.Serve.Offered, res.Serve.Admitted, res.CacheMisses)
	}
	if res.Coalesced == 0 || res.CacheHits == 0 {
		t.Fatalf("run exercised no follower or no hit: %+v", res)
	}
}

// TestTableAgreesWithStack is the differential: a plan with no rules drops the
// table without injecting anything, so the same seed runs once answered by
// table and followers and once with every analysis riding the stack. What the
// devices saw must be identical — with a stub whose answer depends on the
// pixels, a mis-keyed or crossed entry would move a verdict or Bypassed.
func TestTableAgreesWithStack(t *testing.T) {
	for _, seed := range []int64{7, 23} {
		viaTable := runOn(t, smallConfig(seed), contentStub{})
		cfg := smallConfig(seed)
		cfg.Plan = faults.NewPlan(seed)
		viaStack := runOn(t, cfg, contentStub{})
		sim := func(r *Result) [7]int {
			return [7]int{r.Events, r.Debounced, r.Analyses, r.Superseded, r.PopupsCaught, r.Popups, r.Bypassed}
		}
		if sim(viaTable) != sim(viaStack) || viaTable.Verdicts != viaStack.Verdicts {
			t.Fatalf("seed %d: table-served and stack-served runs disagree:\n  table=%v %+v\n  stack=%v %+v",
				seed, sim(viaTable), viaTable.Verdicts, sim(viaStack), viaStack.Verdicts)
		}
		if v := viaTable.Verdicts; v.AUIDetected+v.NonAUIFlagged == 0 || v.AUIMissed+v.NonAUIPassed == 0 || viaTable.Bypassed == 0 {
			t.Fatalf("seed %d: stub answered every screen alike: %+v", seed, viaTable)
		}
		if viaStack.CacheHits+viaStack.CacheMisses+viaStack.Coalesced != 0 || viaStack.Serve.Offered < viaStack.Analyses {
			t.Fatalf("seed %d: plan run did not ride the stack: %+v", seed, viaStack)
		}
	}
}

// TestStormLeadersWithFollowers: one screen per class under storm churn, so
// nearly every early analysis follows one of two leaders and some of those
// leaders are superseded while followed. A leader somebody waits on must not
// be cancelled — its followers would inherit context.Canceled and count as
// degraded — and one nobody waits on must be, and be led afresh. The seeds are
// ones where it happens: cancelling followed leaders too degrades 17, 2 and 11
// of their analyses.
func TestStormLeadersWithFollowers(t *testing.T) {
	for _, seed := range []int64{8, 18, 40} {
		cfg := smallConfig(seed)
		cfg.Devices, cfg.Duration = 600, 6*time.Second
		cfg.EventsPerMinute, cfg.library = 240, 1
		res := run(t, cfg)
		conserved(t, res)
		if res.Degraded != 0 || res.RateLimited != 0 || res.Shed != 0 {
			t.Fatalf("seed %d: followers lost their answer: %+v", seed, res)
		}
		if res.Coalesced == 0 || res.Superseded == 0 {
			t.Fatalf("seed %d: storm produced no follower or no supersede: %+v", seed, res)
		}
		if res.CacheMisses < 2 || res.CacheMisses > 2*cfg.library+res.Superseded {
			t.Fatalf("seed %d: %d leaders for 2 screens and %d superseded", seed, res.CacheMisses, res.Superseded)
		}
		if o := res.Serve.Offered; o > res.CacheMisses || o < res.CacheMisses-res.Superseded {
			t.Fatalf("seed %d: stack offered %d requests for %d leaders", seed, o, res.CacheMisses)
		}
	}
}

// handRunner is a two-device runner over one screen per class with a live
// worker and stack, for tests that drive analyze, onEvent and complete by hand.
func handRunner(t *testing.T, cfg Config) *runner {
	cfg.library = 1
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	backend, tenantCtx := buildStack(cfg, []detect.Detector{stubDetector{}})
	r := &runner{
		backend:   backend,
		tenantCtx: tenantCtx,
		cfg:       cfg,
		clock:     sim.NewClock(1),
		lib:       buildLibrary(1, 1),
		devices:   make([]device, 2),
		submit:    make(chan *analysis, 4),
		cache:     detect.NewCache(4),
		inflight:  make(map[detect.Key]*analysis),
	}
	r.wg.Add(1)
	go r.worker()
	t.Cleanup(func() {
		close(r.submit)
		r.wg.Wait()
		r.backend.Close()
	})
	return r
}

// TestSupersededLeader drives the three clock-side steps by hand on two
// devices sharing one screen, where Run can only make the interleavings
// likely: a superseded leader with a follower keeps its trip through the stack
// and files the answer; one without is cancelled, leaves inflight and files
// nothing, so the next request leads afresh.
func TestSupersededLeader(t *testing.T) {
	r := handRunner(t, smallConfig(1))
	a, b := &r.devices[0], &r.devices[1]
	key := r.lib.neg[0].key

	// Unfollowed: cancelled and forgotten at the supersede, never stored.
	r.analyze(a)
	lone := a.cur
	r.onEvent(a)
	if !lone.superseded || r.inflight[key] != nil {
		t.Fatalf("unfollowed leader: superseded=%v, still inflight=%v", lone.superseded, r.inflight[key] != nil)
	}
	a.debounce.Cancel()
	r.clock.Drain(8)
	if r.cache.Len() != 0 || r.res.Superseded != 1 {
		t.Fatalf("cancelled leader stored %d entries, superseded=%d", r.cache.Len(), r.res.Superseded)
	}

	// Followed: b waits on a's leader, a is superseded, both must end well.
	r.analyze(a)
	lead := a.cur
	r.analyze(b)
	if b.cur.lead != lead || r.res.Coalesced != 1 {
		t.Fatalf("second device did not follow the leader in flight: %+v", r.res)
	}
	r.onEvent(a)
	if r.inflight[key] != lead {
		t.Fatal("a leader with a follower was cancelled at its supersede")
	}
	a.debounce.Cancel()
	r.clock.Drain(8)
	want := Result{Events: 2, Superseded: 2, Analyses: 1, Verdicts: metrics.Confusion{NonAUIFlagged: 1}, Coalesced: 1}
	if got := r.res; got.Events != want.Events || got.Superseded != want.Superseded || got.Analyses != want.Analyses ||
		got.Verdicts != want.Verdicts || got.Coalesced != want.Coalesced || got.Degraded != 0 {
		t.Fatalf("ledger %+v, want %+v", got, want)
	}
	if r.cache.Len() != 1 || len(r.inflight) != 0 || r.cache.Misses() != 2 {
		t.Fatalf("table holds %d entries after %d leaders, %d still inflight", r.cache.Len(), r.cache.Misses(), len(r.inflight))
	}
	r.analyze(b)
	if b.cur.lead != nil || r.cache.Hits() != 1 {
		t.Fatal("a screen whose leader has filed its answer was not a table hit")
	}
	r.clock.Drain(8)
}

// TestRefusedLeaderIsNotAnAnswer: an admission refusal is a verdict on one
// tenant's request, so a follower of a refused leader must not be counted on
// it — it asks again as its own tenant. Each tenant's bucket holds one token
// and refills in ~17 minutes: tenant0 spends its token on the benign screen,
// is refused for the popup, and tenant1, following that refusal, is admitted
// on its own first token.
func TestRefusedLeaderIsNotAnAnswer(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Tenants, cfg.TenantRate, cfg.Bypass = 2, 0.001, false
	r := handRunner(t, cfg)
	a, b := &r.devices[0], &r.devices[1]
	b.tenant = 1

	r.analyze(a)
	r.clock.Drain(8)
	a.popup, b.popup = true, true
	r.analyze(a)
	r.analyze(b)
	if b.cur.lead != a.cur {
		t.Fatal("second device did not follow the leader in flight")
	}
	r.clock.Drain(8)
	if r.res.Analyses != 2 || r.res.RateLimited != 1 || r.res.Degraded != 0 {
		t.Fatalf("ledger %+v, want tenant0 refused once and tenant1 answered", r.res)
	}
	st := r.backend.Stats()
	want := map[serve.TenantID]serve.TenantStats{
		"tenant0": {Offered: 2, Admitted: 1, Rejected: 1},
		"tenant1": {Offered: 1, Admitted: 1},
	}
	if !maps.Equal(st.Tenants, want) {
		t.Fatalf("admission saw %+v, want %+v", st.Tenants, want)
	}
	if len(r.inflight) != 0 || r.cache.Len() != 1 {
		t.Fatalf("%d still inflight, table holds %d (a refusal must not be filed)", len(r.inflight), r.cache.Len())
	}
}

// TestRateLimitedStormConserves runs the storm with the same one-token
// buckets: nearly every leader is refused while others follow it. Every
// analysis is still accounted for once, and every refusal the fleet counts is
// one admission issued to that analysis: Rejected leaders end RateLimited, or
// Superseded if an event beat the verdict.
func TestRateLimitedStormConserves(t *testing.T) {
	cfg := smallConfig(8)
	cfg.Devices, cfg.Duration = 600, 6*time.Second
	cfg.EventsPerMinute, cfg.library = 240, 1
	cfg.Tenants, cfg.TenantRate = 2, 0.001
	res := run(t, cfg)
	conserved(t, res)
	st := res.Serve
	if res.RateLimited == 0 || res.RateLimited > st.Rejected || res.RateLimited < st.Rejected-res.Superseded {
		t.Fatalf("%d rate-limited analyses for %d rejections (%d superseded)", res.RateLimited, st.Rejected, res.Superseded)
	}
	if res.Degraded != 0 || res.Shed != 0 || st.Admitted > cfg.Tenants {
		t.Fatalf("one token a tenant, yet %d admitted; degraded %d, shed %d", st.Admitted, res.Degraded, res.Shed)
	}
	for id, ts := range st.Tenants {
		if ts.Offered != ts.Admitted+ts.Rejected || ts.Rejected == 0 {
			t.Fatalf("%s: ledger %+v", id, ts)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Duration: time.Second}, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("Devices=0 accepted")
	}
	if _, err := Run(Config{Devices: 1}, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("Duration=0 accepted")
	}
	if _, err := Run(Config{Devices: 1, Duration: time.Second}, nil); err == nil {
		t.Error("no replicas accepted")
	}
	bad := Config{Devices: 1, Duration: time.Second, Shape: "sawtooth"}
	if _, err := Run(bad, []detect.Detector{stubDetector{}}); err == nil {
		t.Error("unknown shape accepted")
	}
}

// TestDeviceRNGStreamsIndependent: adjacent devices' generators must not be
// correlated shifts of each other (the bug a naive seed+i construction has).
func TestDeviceRNGStreamsIndependent(t *testing.T) {
	a, b := sim.Stream(42, 0), sim.Stream(42, 1)
	matches := 0
	for i := 0; i < 64; i++ {
		if a.Intn(1000) == b.Intn(1000) {
			matches++
		}
	}
	if matches > 8 {
		t.Fatalf("adjacent device streams agree on %d/64 draws", matches)
	}
}
