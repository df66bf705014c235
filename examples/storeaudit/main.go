// Storeaudit: the app-store / regulator use case from the paper's
// discussion (Section VII) — batch-audit a catalogue of apps for asymmetric
// dark UI patterns and rank them by how aggressively they show AUIs.
//
// Unlike the live run-time decorator (one screen per debounce cycle), an
// audit holds every captured screen up front, so the detector is called on
// whole batches: screens are stacked eight at a time and the conv backbone
// forwards once per stack (core.AuditScreensCtx), with a result cache
// absorbing the many identical screens a monkey crawl revisits.
//
//	go run ./examples/storeaudit
package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/auigen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/perfmodel"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/uikit"
	"repro/internal/yolite"
)

type auditRow struct {
	pkg        string
	screens    int
	auiScreens int
	popups     int
}

func main() {
	model, err := detect.Build("yolite", detect.BuildContext{
		WeightsDir: "weights",
		Samples: func() []*dataset.Sample {
			fmt.Println("no pretrained weights found; training a quick detector...")
			return auigen.BuildAUISamples(1, 96, auigen.DatasetConfig{})
		},
		Epochs: 10,
	})
	if err != nil {
		panic(err)
	}

	// A small catalogue with different AUI aggressiveness levels.
	catalogue := []app.Config{
		{Package: "com.clean.notes", AUIProb: 0.001, GenSeed: 11},
		{Package: "com.casual.game", MeanAUIInterval: 8 * time.Second, GenSeed: 12},
		{Package: "com.free.video", MeanAUIInterval: 5 * time.Second, GenSeed: 13},
		{Package: "com.deal.shop", MeanAUIInterval: 12 * time.Second, GenSeed: 14},
	}

	// Phase 1: crawl each app with a monkey, sampling a screenshot every two
	// simulated seconds. No inference happens here — screens are only
	// collected, which is what lets phase 2 batch them.
	shotsPerApp := make([][]*render.Canvas, len(catalogue))
	popups := make([]int, len(catalogue))
	for i, cfg := range catalogue {
		clock := sim.NewClock(1)
		screen := uikit.NewScreen(384, 640)
		mgr := a11y.NewManager(clock, screen)
		a := app.Launch(clock, mgr, cfg)
		monkey := app.StartMonkey(clock, mgr, "auditor", 2*time.Second)

		sampler := clock.NewTicker(2*time.Second, func() {
			shotsPerApp[i] = append(shotsPerApp[i], mgr.TakeScreenshot())
		})
		clock.RunUntil(2 * time.Minute)
		sampler.Stop()
		monkey.Stop()
		popups[i] = len(a.History())
		a.Stop()
	}

	// Phase 2: one batched inference pass over the whole catalogue. rec
	// records amortised per-screen latency; the cache dedupes screens whose
	// content did not change between samples.
	rec := &perfmodel.Timings{}
	cached := detect.WithResultCache(model, 256)

	// The whole audit runs under one deadline: a regulator's pipeline would
	// rather ship a partial report on time than a complete one late.
	// AuditScreensCtx returns the screens fully audited before the deadline;
	// the generous budget here means the audit normally completes.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var rows []auditRow
	total := 0
	for i, cfg := range catalogue {
		row := auditRow{pkg: cfg.Package, screens: len(shotsPerApp[i]), popups: popups[i]}
		start := time.Now()
		audited, err := core.AuditScreensCtx(ctx, cached, shotsPerApp[i], yolite.DefaultConfThresh, core.DefaultAuditBatch)
		rec.ObserveBatch("batch-infer", time.Since(start), len(audited))
		if err != nil {
			fmt.Printf("audit deadline hit on %s after %d screens; reporting what completed\n", cfg.Package, len(audited))
		}
		for _, dets := range audited {
			if core.FlagsAUI(dets) {
				row.auiScreens++
			}
		}
		total += row.screens
		rows = append(rows, row)
	}

	sort.Slice(rows, func(i, j int) bool {
		return float64(rows[i].auiScreens)/float64(rows[i].screens+1) >
			float64(rows[j].auiScreens)/float64(rows[j].screens+1)
	})
	fmt.Println("store audit report (2 simulated minutes per app, batched inference):")
	fmt.Printf("%-18s %8s %12s %14s\n", "package", "screens", "AUI screens", "actual popups")
	for _, r := range rows {
		fmt.Printf("%-18s %8d %12d %14d\n", r.pkg, r.screens, r.auiScreens, r.popups)
	}
	fmt.Printf("\naudited %d screens: %s\n", total, rec.String())
	fmt.Printf("cache hit rate: %.0f%% (%d hits / %d misses)\n",
		100*cached.HitRate(), cached.Hits(), cached.Misses())
	fmt.Println("apps at the top of the list warrant manual review before listing.")
}
