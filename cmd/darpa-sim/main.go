// Command darpa-sim runs the end-to-end simulation: a handset with a
// simulated app popping asymmetric dark UIs, a Monkey tapping at random, and
// DARPA monitoring through the accessibility layer, detecting AUIs and
// decorating (or auto-bypassing) them. It prints a timeline of what
// happened and can dump annotated screenshots.
//
// Usage:
//
//	darpa-sim [-minutes 2] [-weights weights] [-bypass] [-obfuscate] [-shots dir] [-detector yolite] [-fleet N]
//
// With -fleet N > 1 the single-handset timeline is replaced by the
// event-driven fleet simulator (internal/fleet): N devices' event arrivals,
// debounce timers and popup dwells are heap events on one virtual clock, a
// screen the run's result table has seen costs a map lookup, and only real
// inference rides goroutines — through one shared serving stack (admission →
// scheduler → replica pool) — so one machine simulates 100k+ devices. Traffic
// can be shaped (-shape steady|diurnal|spike), replayed exactly (-fleet-seed)
// and exported as Prometheus text + JSON (-metrics-out).
package main

import (
	"flag"
	"fmt"
	"image/png"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/frauddroid"
	"repro/internal/metrics"
	"repro/internal/uikit"
)

func main() {
	log.SetFlags(0)
	minutes := flag.Int("minutes", 2, "simulated minutes to run")
	weights := flag.String("weights", "weights", "pretrained weights directory")
	bypass := flag.Bool("bypass", false, "auto-click detected UPOs instead of only decorating")
	obfuscate := flag.Bool("obfuscate", false, "app obfuscates its resource ids")
	shots := flag.String("shots", "", "directory to dump annotated screenshots to")
	detector := flag.String("detector", "yolite", "registry backend to run the service with")
	fleetN := flag.Int("fleet", 1, "simulated devices on one event-driven clock (1 = classic single-handset run)")
	replicas := flag.Int("replicas", 1, "independent model replicas behind the fleet's shared scheduler")
	tenants := flag.Int("tenants", 1, "tenant identities the fleet's devices are spread across (tenant0 is live-priority, the rest batch-priority)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant admission rate limit in requests/sec (0 = unlimited); governs what reaches the stack, not result-table hits")
	shedDepth := flag.Int("shed-depth", 0, "shed requests once the scheduler queues hold this many (0 = never shed); counts what reaches the stack, as -tenant-rate does")
	deadline := flag.Duration("deadline", 0, "single-handset: per-analysis wall-clock deadline (0 = none); expired cycles abort mid-forward and skip decoration")
	fleetSeed := flag.Int64("fleet-seed", 42, "fleet: run seed; equal seeds replay identically")
	eventsPerMin := flag.Float64("events-per-min", app.DefaultEventsPerMinute, "fleet: per-device accessibility events per minute before shaping")
	shape := flag.String("shape", fleet.ShapeSteady, "fleet: traffic shape (steady|diurnal|spike)")
	metricsOut := flag.String("metrics-out", "", "fleet: write the run's metric families to <path>.prom and <path>.json")
	chaos := flag.Float64("chaos", 0, "inject detector errors at this rate (0-1); enables the resilient path (retry + frauddroid fallback)")
	chaosLatency := flag.Duration("chaos-latency", 0, "inject latency spikes of this size on ~10% of detector calls")
	chaosPanic := flag.Int("chaos-panic", 0, "panic inside the detector on every Nth call (0 = never)")
	chaosCorrupt := flag.Float64("chaos-corrupt", 0, "corrupt detector results (NaN boxes, out-of-range scores) at this rate")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the fault-injection plan's RNG")
	flag.Parse()

	plan := chaosPlan(*chaos, *chaosLatency, *chaosPanic, *chaosCorrupt, *chaosSeed)

	// The single handset is assembled first in both modes: its screen anchors
	// the detector build context (train-if-cold renders against it), and in
	// fleet mode only the build context's closure is unused.
	var h *fleet.Handset
	bctx := detect.ColdStart(*weights, log.Printf)
	bctx.Screen = func() *uikit.Screen { return h.Screen }

	if *fleetN > 1 {
		bctx.Screen = nil
		reps, err := detect.BuildReplicas(*detector, bctx, *replicas)
		if err != nil {
			log.Fatal(err)
		}
		cfg := fleet.Config{
			Devices:         *fleetN,
			Duration:        time.Duration(*minutes) * time.Minute,
			Seed:            *fleetSeed,
			EventsPerMinute: *eventsPerMin,
			Shape:           *shape,
			Bypass:          *bypass,
			Tenants:         *tenants,
			TenantRate:      *tenantRate,
			ShedDepth:       *shedDepth,
			Plan:            plan,
			Logf:            log.Printf,
		}
		res, err := fleet.Run(cfg, reps)
		if err != nil {
			log.Fatal(err)
		}
		printFleet(res, plan)
		if *metricsOut != "" {
			if err := dumpMetrics(*metricsOut, res.Families()); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	h = fleet.NewHandset(fleet.HandsetConfig{
		Seed: 42,
		App: app.Config{
			Package:         "com.example.shop",
			MeanAUIInterval: 10 * time.Second,
			Obfuscate:       *obfuscate,
		},
		Service: core.Config{AutoBypass: *bypass, Deadline: *deadline},
	})
	model, err := detect.Build(*detector, bctx)
	if err != nil {
		log.Fatal(err)
	}
	var (
		retrier *detect.Retrier
		chain   *detect.FallbackChain
	)
	if plan != nil {
		// Chaos mode: faults hit the primary backend, which is retried, then
		// falls back to the metadata heuristic reading the same screen.
		retrier = detect.WithRetry(faults.Wrap(model, plan), 3)
		chain = detect.WithFallback(retrier, &frauddroid.ViewAdapter{
			Screen: func() *uikit.Screen { return h.Screen },
		})
		model = chain
	}
	shotIdx := 0
	svc := h.Start(model)
	h.OnAnalysis = func(an core.Analysis, _ bool) {
		if !core.FlagsAUI(an.Detections) {
			return
		}
		fmt.Printf("[%8v] AUI detected on %s:\n", an.At.Round(time.Millisecond), an.Package)
		for _, d := range an.Detections {
			cls := "AGO"
			if d.Class == dataset.ClassUPO {
				cls = "UPO"
			}
			fmt.Printf("             %s at %v (confidence %.2f)\n", cls, d.B.Rect(), d.Score)
		}
		if *shots != "" {
			// Render the decorated screen (decorations are already up).
			c := h.Screen.Render()
			name := filepath.Join(*shots, fmt.Sprintf("detect_%02d.png", shotIdx))
			shotIdx++
			f, err := os.Create(name)
			if err == nil {
				_ = png.Encode(f, c.Image())
				f.Close()
				fmt.Printf("             screenshot -> %s\n", name)
			}
		}
	}

	if *shots != "" {
		if err := os.MkdirAll(*shots, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *shots, err)
		}
	}
	h.Run(time.Duration(*minutes) * time.Minute)
	h.Stop()

	st := svc.Stats()
	fmt.Printf("\n--- %d simulated minute(s) ---\n", *minutes)
	fmt.Printf("accessibility events seen:   %d\n", st.EventsSeen)
	fmt.Printf("debounced (work avoided):    %d\n", st.Debounced)
	fmt.Printf("screens analysed:            %d\n", st.Analyses)
	fmt.Printf("analyses superseded:         %d\n", st.Superseded)
	fmt.Printf("analyses timed out:          %d\n", st.TimedOut)
	fmt.Printf("AUIs flagged:                %d\n", st.AUIFlagged)
	fmt.Printf("decorations drawn:           %d\n", st.DecorationsDrawn)
	fmt.Printf("auto-bypass clicks:          %d\n", st.Bypasses)
	fmt.Printf("screenshot buffers rinsed:   %d\n", svc.Timings().Stage(core.StagePreprocess).Count)
	if plan != nil {
		fmt.Printf("degraded (no detector):      %d\n", st.Degraded)
		cs := chain.Stats()
		trips := 0
		for _, b := range cs.Backends {
			trips += b.Tripped
		}
		fmt.Printf("detector retries:            %d\n", retrier.Stats().Retries)
		fmt.Printf("fallback served:             %d\n", cs.FellBack)
		fmt.Printf("circuit-breaker trips:       %d\n", trips)
		fmt.Printf("faults injected:             %s\n", plan)
		printServedRate(st, svc.Timings().Stage(core.StageAct).Count)
	}
	fmt.Printf("pipeline stage times:        %s\n", svc.Timings())
	shown := h.App.History()
	byClick := 0
	for _, hist := range shown {
		if hist.DismissedByClick {
			byClick++
		}
	}
	printLedger(h.Verdicts, len(shown), h.PopupsCaught, byClick)
}

// printLedger prints the run's verdicts (core.FlagsAUI: the analysis holds a
// UPO) joined against the truth (a popup was up on the screen analysed), as
// fleet.Handset and the fleet runner score them, and the popups' fates.
func printLedger(v metrics.Confusion, shown, caught, clicked int) {
	fmt.Printf("verdicts vs truth:           %d caught, %d false alarm, %d missed, %d quiet (precision %.1f%%, recall %.1f%%)\n",
		v.AUIDetected, v.NonAUIFlagged, v.AUIMissed, v.NonAUIPassed, 100*v.Precision(), 100*v.Recall())
	fmt.Printf("AUI popups:                  %d shown, %d caught, %d dismissed by a click\n", shown, caught, clicked)
}

// printFleet renders one fleet run's ledger.
func printFleet(res *fleet.Result, plan *faults.Plan) {
	fmt.Printf("\n--- fleet: %d devices x %v simulated (%s traffic, seed %d) ---\n",
		res.Devices, res.Duration, res.Shape, res.Seed)
	fmt.Printf("events:       %d seen, %d debounced (work avoided)\n", res.Events, res.Debounced)
	fmt.Printf("analyses:     %d completed, %d superseded, %d rate-limited, %d shed, %d degraded\n",
		res.Analyses, res.Superseded, res.RateLimited, res.Shed, res.Degraded)
	st := res.Serve
	fmt.Printf("admission:    %d offered = %d admitted + %d shed + %d rejected (%d tenants)\n",
		st.Offered, st.Admitted, st.Shed, st.Rejected, len(st.Tenants))
	fmt.Printf("scheduler:    %d forwards for %d screens (max batch %d, max queue %d, %d cancelled in queue)\n",
		st.Batches, st.Items, st.MaxBatchSize, st.MaxQueueDepth, st.Cancelled)
	for _, r := range st.Replicas {
		fmt.Printf("replica %-2d    %d screens in %d forwards, %v busy, %d failed, %d bench trips\n",
			r.ID, r.Items, r.Batches, r.Busy.Round(time.Millisecond), r.Failed, r.BenchTrips)
	}
	if res.CacheHits+res.CacheMisses > 0 {
		rate := float64(res.CacheHits) / float64(res.CacheHits+res.CacheMisses)
		fmt.Printf("result table: %.2f%% hit rate (%d hits / %d coalesced / %d forwards)\n", 100*rate, res.CacheHits, res.Coalesced, res.CacheMisses)
	}
	if plan != nil {
		fmt.Printf("chaos:        %s (%d poison batches, %d failed requests isolated)\n", plan, st.Poisoned, st.Failed)
	}
	rps := 0.0
	if res.Wall > 0 {
		rps = float64(res.Analyses) / res.Wall.Seconds()
	}
	fmt.Printf("throughput:   %.0f analyses/s over %v wall (%0.fx real time)\n",
		rps, res.Wall.Round(time.Millisecond), res.Duration.Seconds()/res.Wall.Seconds())
	if res.Timings != nil {
		fmt.Printf("serving:      %s\n", res.Timings.String())
	}
	printLedger(res.Verdicts, res.Popups, res.PopupsCaught, res.Bypassed)
}

// dumpMetrics writes the families as Prometheus text (<path>.prom) and JSON
// (<path>.json).
func dumpMetrics(path string, fams []metrics.Family) error {
	prom, err := os.Create(path + ".prom")
	if err != nil {
		return err
	}
	if err := metrics.WriteText(prom, fams); err != nil {
		prom.Close()
		return err
	}
	if err := prom.Close(); err != nil {
		return err
	}
	jf, err := os.Create(path + ".json")
	if err != nil {
		return err
	}
	if err := metrics.WriteJSON(jf, fams); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// printServedRate reports what fraction of the screens that reached the
// infer decision still produced a full analysis — directly or via
// retry/fallback — rather than degrading. Superseded and timed-out cycles
// are the caller's doing and excluded from the denominator. served is the
// act step's run count.
func printServedRate(st core.Stats, served int) {
	eligible := served + st.Degraded
	if eligible == 0 {
		return
	}
	fmt.Printf("screens served under chaos:  %d/%d (%.1f%%)\n",
		served, eligible, 100*float64(served)/float64(eligible))
}

// chaosPlan assembles the fault-injection plan from the -chaos* flags, or
// returns nil when every knob is off. Rules are first-match-wins per call:
// deterministic panics take precedence, then errors, corruptions, and
// latency spikes.
func chaosPlan(errRate float64, latency time.Duration, panicEvery int, corruptRate float64, seed int64) *faults.Plan {
	var rules []faults.Rule
	if panicEvery > 0 {
		rules = append(rules, faults.Rule{Kind: faults.Panic, Every: panicEvery})
	}
	if errRate > 0 {
		rules = append(rules, faults.Rule{Kind: faults.Error, Rate: errRate})
	}
	if corruptRate > 0 {
		rules = append(rules, faults.Rule{Kind: faults.Corrupt, Rate: corruptRate})
	}
	if latency > 0 {
		rules = append(rules, faults.Rule{Kind: faults.Latency, Rate: 0.1, Latency: latency})
	}
	if len(rules) == 0 {
		return nil
	}
	return faults.NewPlan(seed, rules...)
}
