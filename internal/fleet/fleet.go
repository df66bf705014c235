// Package fleet is the event-driven fleet simulator: one sim.Clock, 100k+
// simulated devices, and a shared serving stack. The thread-per-device model
// it replaces spent a goroutine pipeline (clock, screen, renderer, app,
// monkey, service) on every device and topped out around tens of devices;
// here a device is ~100 bytes of state whose a11y-event arrivals, debounce
// timers, AUI dwell times and analysis completions are heap events on one
// virtual clock. Real goroutines are spent only where real work happens: a
// bounded worker pool carries each analysis through the serve stack
// (admission → scheduler → replicas, with per-replica result caches), and the
// event loop throttles on those results, so virtual time can never outrun the
// hardware.
//
// Determinism: every simulation decision draws from a per-device splitmix64
// stream seeded from the run seed, and all counters mutate on the clock's
// single goroutine in virtual-time order — two runs with the same seed and
// knobs produce identical totals (the replay test pins this). The only
// nondeterministic counters are the admission verdicts under -tenant-rate /
// -shed-depth, whose token buckets and queue depths read the wall clock.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// Defaults for Config fields left zero.
const (
	DefaultEventsPerMinute = 32 // the paper's Taobao storm rate
	DefaultMeanAUIInterval = 15 * time.Second
	DefaultCutoff          = 200 * time.Millisecond
	DefaultLibrary         = 48
	DefaultMaxBatch        = 64

	// burstLen mirrors the app package: events-per-minute arrive as periodic
	// bursts of ~burstLen events, the pattern ct-debouncing exploits.
	burstLen = 5
	// dwellMin/Max bound AUI popup exposure, as in app.Config.
	dwellMin = 800 * time.Millisecond
	dwellMax = 6 * time.Second
)

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
	// shaping. Zero means 32.
	EventsPerMinute float64
	// MeanAUIInterval is the mean time between AUI popups per device. Zero
	// means 15s.
	MeanAUIInterval time.Duration
	// Cutoff is the debounce quiet period ct. Zero means 200ms.
	Cutoff time.Duration
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
	TenantRate float64
	// ShedDepth sheds requests once the scheduler queues hold this many
	// (0 = never shed).
	ShedDepth int
	// Library is how many unique screens per class the fleet draws from.
	// Zero means 48.
	Library int
	// Workers bounds the goroutines carrying real inference requests. Zero
	// means 2x MaxBatch, enough concurrency to fill batches.
	Workers int
	// MaxBatch caps one forward of the shared scheduler. Zero means 64 —
	// unlike interactive serving, a fleet backlog can be deep enough to
	// fill large batches.
	MaxBatch int
	// ConfThresh is the detector threshold; zero means yolite's default.
	ConfThresh float64
	// Plan, when non-nil, injects faults at each replica backend; result
	// caches are dropped (a corrupted result must not be memoised) and failed
	// analyses count as degraded.
	Plan *faults.Plan
	// Timings receives per-stage latencies; nil allocates a private recorder
	// (exposed on Result.Timings either way).
	Timings *perfmodel.Timings
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.Devices < 1 {
		return errors.New("fleet: Config.Devices must be >= 1")
	}
	if c.Duration <= 0 {
		return errors.New("fleet: Config.Duration must be positive")
	}
	if c.EventsPerMinute <= 0 {
		c.EventsPerMinute = DefaultEventsPerMinute
	}
	if c.MeanAUIInterval <= 0 {
		c.MeanAUIInterval = DefaultMeanAUIInterval
	}
	if c.Cutoff <= 0 {
		c.Cutoff = DefaultCutoff
	}
	if c.Tenants <= 0 {
		c.Tenants = 1
	}
	if c.Library <= 0 {
		c.Library = DefaultLibrary
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = 2 * c.MaxBatch
	}
	if c.ConfThresh == 0 {
		c.ConfThresh = yolite.DefaultConfThresh
	}
	if c.Timings == nil {
		c.Timings = &perfmodel.Timings{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Result is one run's ledger. The simulation totals (Events through
// Bypassed) are deterministic per seed; the serving-layer numbers reflect
// real concurrent execution.
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
	Flagged    int // completed analyses that detected >= 1 option
	Popups     int // AUI popups shown
	Bypassed   int // popups dismissed by fleet-level auto-bypass

	// Completion-side serving outcomes.
	RateLimited int // analyses answered with serve.ErrRateLimited
	Shed        int // analyses answered with serve.ErrOverloaded
	Degraded    int // analyses whose detector failed outright

	// Serving-stack snapshot and cache totals.
	Serve       serve.Stats
	CacheHits   int
	CacheMisses int

	Timings *perfmodel.Timings
}

// analysis is one in-flight detection cycle: submitted to the worker pool at
// its (virtual) start, reaped by a completion event at start + modeled
// latency, which blocks on done until the real work has finished.
type analysis struct {
	dev        *device
	superseded bool
	cancel     context.CancelFunc
	done       chan jobResult
}

type jobResult struct {
	dets []metrics.Detection
	err  error
}

// device is one simulated handset: ~100 bytes, no goroutine.
type device struct {
	rng      rng
	tenant   int32
	popup    bool
	popupGen uint32 // invalidates stale dwell-dismiss events
	debounce *sim.Event
	cur      *analysis
}

// job carries one analysis into the worker pool.
type job struct {
	ctx context.Context
	x   *tensor.Tensor
	an  *analysis
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
	submit    chan job
	wg        sync.WaitGroup

	stopped bool
	res     Result
}

// Run simulates cfg.Devices devices for cfg.Duration on one virtual clock,
// serving every analysis through a shared serving stack built over models
// (independent replicas, see detect.BuildReplicas). It returns the run
// ledger; the serving stack is torn down before it returns.
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

	cfg.Logf("fleet: rendering screen library (%d screens/class)...", cfg.Library)
	lib := buildLibrary(cfg.Seed, cfg.Library)

	batcher, caches := buildStack(cfg, models)
	r := &runner{
		cfg:     cfg,
		clock:   sim.NewClock(cfg.Seed),
		shape:   shape,
		period:  time.Duration(float64(time.Minute) / cfg.EventsPerMinute * burstLen),
		lib:     lib,
		devices: make([]device, cfg.Devices),
		backend: batcher,
		submit:  make(chan job, 4*cfg.Workers),
	}
	r.res = Result{Devices: cfg.Devices, Duration: cfg.Duration, Seed: cfg.Seed, Shape: cfg.Shape, Timings: cfg.Timings}

	// One prebuilt context per tenant: their Done() is nil, so an analysis
	// context derives with a single allocation and the tenant tag rides the
	// same channel in-process callers use.
	r.tenantCtx = make([]context.Context, cfg.Tenants)
	for t := range r.tenantCtx {
		r.tenantCtx[t] = serve.WithTenant(context.Background(), serve.TenantInfo{
			ID:       serve.TenantID(fmt.Sprintf("tenant%d", t)),
			Priority: tenantPriority(t),
		})
	}

	for w := 0; w < cfg.Workers; w++ {
		r.wg.Add(1)
		go r.worker()
	}

	// Seed each device's schedule: bursts start at a uniform phase offset (no
	// thundering herd at t=0) and the first AUI popup at its exponential draw.
	for i := range r.devices {
		d := &r.devices[i]
		d.rng = deviceRNG(cfg.Seed, i)
		d.tenant = int32(i % cfg.Tenants)
		phase := time.Duration(d.rng.Float64() * float64(r.period))
		r.clock.Schedule(phase, func() { r.burst(d) })
		r.scheduleAUI(d)
	}

	cfg.Logf("fleet: %d devices x %v on one clock (%s traffic)...", cfg.Devices, cfg.Duration, shapeName(cfg.Shape))
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

	for _, c := range caches {
		r.res.CacheHits += c.Hits()
		r.res.CacheMisses += c.Misses()
		c.PublishStats(cfg.Timings)
	}
	r.res.Serve = batcher.Stats()
	return &r.res, nil
}

func tenantPriority(t int) serve.Priority {
	if t > 0 {
		return serve.PriorityBatch
	}
	return serve.PriorityLive
}

func shapeName(s string) string {
	if s == "" {
		return ShapeSteady
	}
	return s
}

// buildStack assembles the shared serving stack exactly as the retired
// thread-per-device fleet did: per-replica result caches (dropped under chaos
// so an injected corruption is never memoised), a tenant admission table, and
// the batcher over it all. Each model arrives with its own activation pool
// (detect.Build provisions it).
func buildStack(cfg Config, models []detect.Detector) (*serve.Batcher, []*detect.Cache) {
	var caches []*detect.Cache
	backends := make([]detect.Detector, 0, len(models))
	for _, model := range models {
		var inner detect.Detector = model
		if cfg.Plan != nil {
			inner = faults.WrapStage(model, cfg.Plan, "backend")
		} else {
			// The working set is the screen library, so capacity scales with
			// it — not with the device count, which would balloon the cache
			// for identical contents.
			c := detect.WithResultCache(model, 4*cfg.Library)
			caches = append(caches, c)
			inner = c
		}
		backends = append(backends, inner)
	}
	tenantTable := make(map[serve.TenantID]serve.TenantConfig, cfg.Tenants)
	for t := 0; t < cfg.Tenants; t++ {
		tenantTable[serve.TenantID(fmt.Sprintf("tenant%d", t))] = serve.TenantConfig{
			Rate:     cfg.TenantRate,
			Priority: tenantPriority(t),
		}
	}
	batcher := serve.NewReplicated(serve.Options{
		MaxBatch:      cfg.MaxBatch,
		Timings:       cfg.Timings,
		Tenants:       tenantTable,
		MaxQueueDepth: cfg.ShedDepth,
	}, backends...)
	return batcher, caches
}

// worker carries analyses through the serving stack. Workers block inside the
// batcher while the replicas are busy, and what queues up behind them is the
// next batch; the event loop blocks on their results at completion events,
// closing the throttle loop between virtual time and real compute.
func (r *runner) worker() {
	defer r.wg.Done()
	for j := range r.submit {
		dets, err := detect.Only(r.backend.PredictBatchCtx(j.ctx, j.x, r.cfg.ConfThresh))
		j.an.done <- jobResult{dets: dets, err: err}
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
// screen just changed under the detector).
func (r *runner) onEvent(d *device) {
	if r.stopped {
		return
	}
	r.res.Events++
	if d.debounce != nil && !d.debounce.Cancelled() {
		d.debounce.Cancel()
		r.res.Debounced++
	}
	if d.cur != nil && !d.cur.superseded {
		d.cur.superseded = true
		d.cur.cancel() // prunes the request wherever it is in the stack
	}
	d.debounce = r.clock.Schedule(r.cfg.Cutoff, func() { r.analyze(d) })
}

// analyze starts one detection cycle: pick the device's current screen from
// the library, hand the real inference to the worker pool, and schedule the
// completion event at now + the modeled on-device latency (capture +
// preprocess + a ~20ms forward, per the paper's Table VII budget).
func (r *runner) analyze(d *device) {
	d.debounce = nil
	if r.stopped {
		return
	}
	var x *tensor.Tensor
	if d.popup {
		x = r.lib.aui[d.rng.Intn(len(r.lib.aui))]
	} else {
		x = r.lib.neg[d.rng.Intn(len(r.lib.neg))]
	}
	modeled := 15*time.Millisecond + time.Duration(d.rng.Intn(20))*time.Millisecond
	ctx, cancel := context.WithCancel(r.tenantCtx[d.tenant])
	an := &analysis{dev: d, cancel: cancel, done: make(chan jobResult, 1)}
	d.cur = an
	r.cfg.Timings.Observe("fleet-modeled-analysis", modeled)
	r.submit <- job{ctx: ctx, x: x, an: an}
	r.clock.Schedule(modeled, func() { r.complete(an) })
}

// complete reaps one analysis when its modeled latency elapses, blocking
// until the real result is in. Superseded cycles count as such whatever the
// stack answered — core.Service never surfaces a cancelled cycle's result
// either — which keeps the totals deterministic even though the cancel races
// the forward.
func (r *runner) complete(an *analysis) {
	res := <-an.done
	an.cancel()
	d := an.dev
	if d.cur == an {
		d.cur = nil
	}
	if an.superseded {
		r.res.Superseded++
		return
	}
	if res.err != nil {
		switch {
		case errors.Is(res.err, serve.ErrRateLimited):
			r.res.RateLimited++
		case errors.Is(res.err, serve.ErrOverloaded):
			r.res.Shed++
		default:
			r.res.Degraded++
		}
		return
	}
	r.res.Analyses++
	if len(res.dets) == 0 {
		return
	}
	r.res.Flagged++
	if r.cfg.Bypass && d.popup && hasUPO(res.dets) {
		r.dismissAUI(d, d.popupGen, true)
	}
}

func hasUPO(dets []metrics.Detection) bool {
	for _, det := range dets {
		if det.Class == dataset.ClassUPO {
			return true
		}
	}
	return false
}

// scheduleAUI arms d's next popup at an exponential interval, as
// app.scheduleNextAUI does.
func (r *runner) scheduleAUI(d *device) {
	if r.stopped {
		return
	}
	delay := time.Duration(d.rng.ExpFloat64() * float64(r.cfg.MeanAUIInterval))
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
	dwell := dwellMin + time.Duration(d.rng.Int63n(int64(dwellMax-dwellMin)+1))
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
