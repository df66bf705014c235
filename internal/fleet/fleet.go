// Package fleet is the event-driven fleet simulator: one sim.Clock, 100k+
// simulated devices, and a shared serving stack. A device is ~100 bytes of
// state, no goroutine: its a11y-event arrivals, debounce timers, AUI dwell
// times and analysis completions are heap events on one virtual clock. A
// screen is identified once: the library keys each screen when it renders it,
// and an analysis asks the run's one detect.Table (and the leaders already in
// flight) by that key before anything else. Real goroutines are spent only
// where real work happens: a bounded worker pool carries each screen the table
// has not seen through the serve stack (admission → scheduler → replicas), and
// the event loop throttles on those results, so virtual time can never outrun
// the hardware.
//
// Determinism: every simulation decision draws from a per-device splitmix64
// stream seeded from the run seed, and all counters — the table's hits,
// misses and coalesced followers included — mutate on the clock's single
// goroutine in virtual-time order: two runs with the same seed and knobs
// produce identical totals (the replay test pins this). The exception is a
// run under -tenant-rate / -shed-depth: admission's token buckets and queue
// depths read the wall clock, and a refused leader files nothing in the table,
// so its verdicts and the table's counters vary with it.
package fleet

import (
	"cmp"
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/yolite"
)

// cutoff is the debounce quiet period ct. A device's event rate, burst
// length, popup interval and dwell are the simulated app's (package app).
const cutoff = 200 * time.Millisecond

// Config parameterises one fleet run.
type Config struct {
	// Devices is the fleet size. Required, >= 1.
	Devices int
	// Duration is the simulated run length. Required, > 0.
	Duration time.Duration
	// Seed drives every per-device RNG and the screen library; equal seeds
	// (with equal knobs) replay identically.
	Seed int64
	// EventsPerMinute is each device's background a11y-event rate before
	// shaping. Zero means app.DefaultEventsPerMinute.
	EventsPerMinute float64
	// Shape names the traffic shape: steady (default), diurnal, spike.
	Shape string
	// Bypass auto-dismisses a device's popup when an analysis of it flags a
	// UPO — the fleet-scale analogue of core's auto-bypass click.
	Bypass bool
	// Tenants spreads devices round-robin across this many tenant
	// identities; tenant0 is live-priority, the rest batch. Zero means 1.
	Tenants int
	// TenantRate is the per-tenant admission rate limit in requests/sec
	// (0 = unlimited). Wall-clock based, so it trades determinism for realism.
	// Admission sees what reaches the stack: the leaders. An analysis the
	// table or a successful leader answers costs the stack nothing and is not
	// charged; a refused leader's followers each ask again as their own tenant.
	TenantRate float64
	// ShedDepth sheds requests once the scheduler queues hold this many
	// (0 = never shed). Like TenantRate, it governs leaders.
	ShedDepth int
	// Plan, when non-nil, injects faults at each replica backend; the run
	// then has no result table, so every analysis rides the stack and meets
	// the plan (with one, ~99.9% of analyses are table hits that no fault
	// could reach), and failed analyses count as degraded.
	Plan *faults.Plan
	// Timings receives per-stage latencies; nil allocates a private recorder
	// (exposed on Result.Timings either way).
	Timings *perfmodel.Timings
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	// Sizing only this package's tests set: unique screens per class (zero
	// means 48), the goroutines carrying requests through the stack (2x
	// maxBatch, enough to fill a batch) and the scheduler's cap on one forward
	// (64: a fleet backlog can fill large batches).
	library, workers, maxBatch int
}

func (c *Config) setDefaults() error {
	if c.Devices < 1 {
		return errors.New("fleet: Config.Devices must be >= 1")
	}
	if c.Duration <= 0 {
		return errors.New("fleet: Config.Duration must be positive")
	}
	if c.EventsPerMinute <= 0 {
		c.EventsPerMinute = app.DefaultEventsPerMinute
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	c.Shape = cmp.Or(c.Shape, ShapeSteady)
	c.library = cmp.Or(c.library, 48)
	c.maxBatch = cmp.Or(c.maxBatch, 64)
	c.workers = cmp.Or(c.workers, 2*c.maxBatch)
	if c.Timings == nil {
		c.Timings = &perfmodel.Timings{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Result is one run's ledger. The simulation totals (Events through
// PopupsCaught) and the table's three counters are deterministic per seed;
// the serving-stack snapshot reflects real concurrent execution.
type Result struct {
	Devices  int
	Duration time.Duration
	Seed     int64
	Shape    string
	Wall     time.Duration // real time the run took

	// Simulation totals, in virtual-time order.
	Events     int // a11y events seen across the fleet
	Debounced  int // events that reset a pending ct timer
	Analyses   int // analysis cycles that completed
	Superseded int // in-flight analyses invalidated by a fresh event
	Popups     int // AUI popups shown
	Bypassed   int // popups dismissed by fleet-level auto-bypass
	// Each completed analysis's verdict (core.FlagsAUI) against its screen's
	// pool, and the popups flagged at least once, as a Handset scores them.
	Verdicts     metrics.Confusion
	PopupsCaught int

	// Completion-side serving outcomes.
	RateLimited int // analyses answered with serve.ErrRateLimited
	Shed        int // analyses answered with serve.ErrOverloaded
	Degraded    int // analyses whose detector failed outright

	// Serving-stack snapshot, and who answered each analysis of a run with a
	// result table (all zero under Config.Plan).
	Serve       serve.Stats
	CacheHits   int // the table
	Coalesced   int // a leader already in the stack for the same screen
	CacheMisses int // the stack: the leaders, all it was offered bar a refused leader's followers asking again

	Timings *perfmodel.Timings
}

// analysis is one in-flight detection cycle, reaped by a completion event at
// its (virtual) start + modeled latency. Who answers it is settled at that
// start: the table (dets is set, lead is nil), a leader already in the stack
// for the same screen (lead), or its own trip through the stack (lead is the
// analysis itself), which the completion event blocks on until it has ended.
// Only a leader's error unsettles it: complete then sends the follower itself.
type analysis struct {
	dev        *device
	popup      uint32 // the truth: popupGen of the popup up at analyze, 0 if none
	superseded bool
	lead       *analysis
	dets       []metrics.Detection
	err        error

	// A leader's trip: its worker takes the screen through the stack under
	// ctx, writes dets and err, then closes done.
	screen
	ctx      context.Context
	cancel   context.CancelFunc
	done     chan struct{}
	followed bool // another analysis will read the answer: never cancel
}

// device is one simulated handset: ~100 bytes, no goroutine.
type device struct {
	rng      sim.Splitmix
	tenant   int32
	popup    bool
	popupGen uint32 // invalidates stale dwell-dismiss events
	caught   uint32 // popupGen of the last popup counted in PopupsCaught
	debounce *sim.Event
	cur      *analysis
}

// runner holds one run's live state. Everything except the worker pool runs
// on the clock goroutine.
type runner struct {
	cfg     Config
	clock   *sim.Clock
	shape   shapeFunc
	period  time.Duration // base burst interval
	lib     *library
	devices []device

	backend   *serve.Batcher // shared by every device
	tenantCtx []context.Context
	// The run's one result table and the leaders in the stack, by screen:
	// nil under cfg.Plan, touched only from the clock goroutine.
	cache    *detect.Table
	inflight map[detect.Key]*analysis
	submit   chan *analysis // leaders, to the worker pool
	wg       sync.WaitGroup

	stopped bool
	res     Result
}

// Run simulates cfg.Devices devices for cfg.Duration on one virtual clock,
// serving every analysis the result table cannot answer through a shared
// serving stack built over models (independent replicas, see
// detect.BuildReplicas). It returns the run ledger; the serving stack is torn
// down before it returns.
func Run(cfg Config, models []detect.Detector) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, errors.New("fleet: Run requires at least one model replica")
	}
	shape, err := shapeFor(cfg.Shape)
	if err != nil {
		return nil, err
	}

	cfg.Logf("fleet: rendering screen library (%d screens/class)...", cfg.library)
	batcher, tenantCtx := buildStack(cfg, models)
	r := &runner{
		cfg:       cfg,
		clock:     sim.NewClock(cfg.Seed),
		shape:     shape,
		period:    time.Duration(float64(time.Minute) / cfg.EventsPerMinute * app.BurstLen),
		lib:       buildLibrary(cfg.Seed, cfg.library),
		devices:   make([]device, cfg.Devices),
		backend:   batcher,
		submit:    make(chan *analysis, 4*cfg.workers),
		tenantCtx: tenantCtx,
	}
	if cfg.Plan == nil {
		// The working set is the screen library, so capacity scales with it
		// (and never evicts) — not with the device count.
		r.cache = detect.NewCache(4 * cfg.library)
		r.inflight = make(map[detect.Key]*analysis)
	}
	r.res = Result{Devices: cfg.Devices, Duration: cfg.Duration, Seed: cfg.Seed, Shape: cfg.Shape, Timings: cfg.Timings}

	for w := 0; w < cfg.workers; w++ {
		r.wg.Add(1)
		go r.worker()
	}

	// Seed each device's schedule: bursts start at a uniform phase offset (no
	// thundering herd at t=0) and the first AUI popup at its exponential draw.
	for i := range r.devices {
		d := &r.devices[i]
		d.rng = sim.Stream(cfg.Seed, i)
		d.tenant = int32(i % cfg.Tenants)
		phase := time.Duration(d.rng.Float64() * float64(r.period))
		r.clock.Schedule(phase, func() { r.burst(d) })
		r.scheduleAUI(d)
	}

	cfg.Logf("fleet: %d devices x %v on one clock (%s traffic)...", cfg.Devices, cfg.Duration, cfg.Shape)
	start := time.Now()
	r.clock.RunUntil(cfg.Duration)

	// End of run: stop generating load, then drain the queue so every
	// completion event reaps its in-flight job — no worker may be left
	// blocked on a result nobody collects.
	r.stopped = true
	r.clock.Drain(2*r.clock.Pending() + 16)
	close(r.submit)
	r.wg.Wait()
	batcher.Close()
	r.res.Wall = time.Since(start)

	if r.cache != nil {
		r.res.CacheHits, r.res.CacheMisses = r.cache.Hits(), r.cache.Misses()
	}
	r.res.Serve = batcher.Stats()
	return &r.res, nil
}

// buildStack assembles the shared serving stack: the replicas (each model
// arrives with its own activation pool, detect.Build provisions it; under
// chaos each is wrapped in the fault plan), a tenant admission table, and the
// batcher over it all. Beside it, one prebuilt context per tenant: their
// Done() is nil, so a leader's context derives with a single allocation and
// the tenant tag rides the same channel in-process callers use.
func buildStack(cfg Config, models []detect.Detector) (*serve.Batcher, []context.Context) {
	backends := make([]detect.Detector, len(models))
	for i, model := range models {
		backends[i] = model
		if cfg.Plan != nil {
			backends[i] = faults.Wrap(model, cfg.Plan)
		}
	}
	table, ids := serve.TieredTenants(cfg.Tenants, cfg.TenantRate)
	ctxs := make([]context.Context, len(ids))
	for t, info := range ids {
		ctxs[t] = serve.WithTenant(context.Background(), info)
	}
	return serve.NewReplicated(serve.Options{
		MaxBatch:      cfg.maxBatch,
		Timings:       cfg.Timings,
		Tenants:       table,
		MaxQueueDepth: cfg.ShedDepth,
	}, backends...), ctxs
}

// worker carries leaders through the serving stack. Workers block inside the
// batcher while the replicas are busy, and what queues up behind them is the
// next batch; the event loop blocks on their results at completion events,
// closing the throttle loop between virtual time and real compute.
func (r *runner) worker() {
	defer r.wg.Done()
	for an := range r.submit {
		an.dets, an.err = detect.Only(r.backend.PredictBatchCtx(an.ctx, an.x, yolite.DefaultConfThresh))
		close(an.done)
	}
}

// burst emits one churn burst for d — 3..7 events spaced ~100-160ms apart,
// mirroring app.churnBurst — then schedules the next burst at the
// shape-adjusted interval.
func (r *runner) burst(d *device) {
	if r.stopped {
		return
	}
	n := 3 + d.rng.Intn(5)
	for i := 0; i < n; i++ {
		gap := time.Duration(100+d.rng.Intn(60)) * time.Millisecond
		r.clock.Schedule(time.Duration(i)*gap, func() { r.onEvent(d) })
	}
	mult := r.shape(r.clock.Now(), r.cfg.Duration)
	if mult < 0.05 {
		mult = 0.05
	}
	r.clock.Schedule(time.Duration(float64(r.period)/mult), func() { r.burst(d) })
}

// onEvent is one a11y event landing on d's DARPA service, with core.Service
// semantics: re-arm the ct timer, supersede any in-flight analysis (the
// screen just changed under the detector). A superseded leader is cancelled
// — and leaves inflight, so the next request for its screen leads afresh —
// unless another device's analysis is waiting on its answer.
func (r *runner) onEvent(d *device) {
	if r.stopped {
		return
	}
	r.res.Events++
	if d.debounce != nil && !d.debounce.Cancelled() {
		d.debounce.Cancel()
		r.res.Debounced++
	}
	if an := d.cur; an != nil && !an.superseded {
		an.superseded = true
		if an.lead == an && !an.followed {
			an.cancel() // prunes the request wherever it is in the stack
			delete(r.inflight, an.key)
		}
	}
	d.debounce = r.clock.Schedule(cutoff, func() { r.analyze(d) })
}

// analyze starts one detection cycle: pick the device's current screen from
// the library, find who answers it, and schedule the completion event at now
// + the modeled on-device latency (capture + preprocess + a ~20ms forward,
// per the paper's Table VII budget). A leader already in the stack for the
// screen answers first (this analysis follows it: no submit, no context, no
// hand-off), then the table; only a screen neither knows becomes a leader and
// rides worker → admission → scheduler → replica.
func (r *runner) analyze(d *device) {
	d.debounce = nil
	if r.stopped {
		return
	}
	an := &analysis{dev: d}
	pool := r.lib.neg
	if d.popup {
		pool, an.popup = r.lib.aui, d.popupGen
	}
	s := pool[d.rng.Intn(len(pool))]
	modeled := 15*time.Millisecond + time.Duration(d.rng.Intn(20))*time.Millisecond
	d.cur = an
	r.cfg.Timings.Observe("fleet-modeled-analysis", modeled)
	hit := false
	if lead := r.inflight[s.key]; lead != nil {
		lead.followed, an.lead = true, lead
		r.res.Coalesced++
	} else if r.cache != nil {
		an.dets, hit = r.cache.Lookup(s.key)
	}
	if an.lead == nil && !hit {
		if r.inflight != nil {
			r.inflight[s.key] = an
		}
		r.lead(an, s)
	}
	r.clock.Schedule(modeled, func() { r.complete(an) })
}

// lead sends an through the stack with s, under its own device's tenant.
func (r *runner) lead(an *analysis, s screen) {
	an.ctx, an.cancel = context.WithCancel(r.tenantCtx[an.dev.tenant])
	an.lead, an.screen, an.done = an, s, make(chan struct{})
	r.submit <- an
}

// complete reaps one analysis when its modeled latency elapses, blocking
// until the real result is in. A leader still in inflight was never cancelled:
// it leaves, and files what the stack answered in the table — so what the
// table holds is decided here, on the clock goroutine in virtual-time order.
// Superseded cycles count as such whatever the stack answered — core.Service
// never surfaces a cancelled cycle's result either — which keeps the totals
// deterministic even though the cancel races the forward.
func (r *runner) complete(an *analysis) {
	if lead := an.lead; lead != nil {
		<-lead.done
		if lead != an && lead.err != nil && !an.superseded {
			// An error is a verdict on the leader's request — its tenant's
			// rate limit, the queue depth it met — and not an answer to
			// share: the follower asks for itself, and is due now.
			r.lead(an, lead.screen)
			lead = an
			<-an.done
		}
		an.dets, an.err = lead.dets, lead.err
	}
	if an.lead == an {
		an.cancel()
		if r.inflight[an.key] == an {
			delete(r.inflight, an.key)
			if an.err == nil {
				r.cache.Store(an.key, an.dets)
			}
		}
	}
	d := an.dev
	if d.cur == an {
		d.cur = nil
	}
	if an.superseded {
		r.res.Superseded++
		return
	}
	if an.err != nil {
		switch {
		case errors.Is(an.err, serve.ErrRateLimited):
			r.res.RateLimited++
		case errors.Is(an.err, serve.ErrOverloaded):
			r.res.Shed++
		default:
			r.res.Degraded++
		}
		return
	}
	r.res.Analyses++
	flagged := core.FlagsAUI(an.dets)
	r.res.Verdicts.Add(an.popup != 0, flagged)
	if !flagged || an.popup == 0 {
		return
	}
	if d.caught != an.popup {
		d.caught = an.popup
		r.res.PopupsCaught++
	}
	if r.cfg.Bypass {
		r.dismissAUI(d, an.popup, true)
	}
}

// scheduleAUI arms d's next popup at an exponential interval, as
// app.scheduleNextAUI does.
func (r *runner) scheduleAUI(d *device) {
	if r.stopped {
		return
	}
	delay := time.Duration(d.rng.ExpFloat64() * float64(app.DefaultMeanAUIInterval))
	if delay < 500*time.Millisecond {
		delay = 500 * time.Millisecond
	}
	r.clock.Schedule(delay, func() { r.showAUI(d) })
}

// showAUI pops an asymmetric dark UI on d: two window events (windows
// changed + state changed, as app.ShowAUI emits), then a dwell-bounded
// self-dismiss unless auto-bypass gets there first.
func (r *runner) showAUI(d *device) {
	if r.stopped || d.popup {
		return
	}
	d.popup = true
	d.popupGen++
	gen := d.popupGen
	r.res.Popups++
	r.onEvent(d)
	r.onEvent(d)
	dwell := app.AUIDwellMin + time.Duration(d.rng.Int63n(int64(app.AUIDwellMax-app.AUIDwellMin)+1))
	r.clock.Schedule(dwell, func() { r.dismissAUI(d, gen, false) })
}

// dismissAUI closes d's popup if gen still names it (a stale dwell event
// after a bypass is a no-op), emits the windows-changed event, and schedules
// the next popup.
func (r *runner) dismissAUI(d *device, gen uint32, byBypass bool) {
	if !d.popup || d.popupGen != gen {
		return
	}
	d.popup = false
	if byBypass {
		r.res.Bypassed++
	}
	r.onEvent(d)
	if !r.stopped {
		r.scheduleAUI(d)
	}
}
