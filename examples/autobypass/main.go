// Autobypass: run DARPA in its alternative mode (Section IV-D) where,
// instead of only decorating, it automatically clicks the detected
// user-preferred option to close dark-pattern popups on the user's behalf.
//
// A simulated shopping app pops AUIs every few seconds; DARPA's auto-bypass
// clicks them away, and the app's own lifecycle records the dismissals.
//
//	go run ./examples/autobypass
package main

import (
	"fmt"
	"time"

	"repro/internal/a11y"
	"repro/internal/app"
	"repro/internal/auigen"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/sim"
	"repro/internal/uikit"
)

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

	clock := sim.NewClock(7)
	screen := uikit.NewScreen(384, 640)
	mgr := a11y.NewManager(clock, screen)
	shop := app.Launch(clock, mgr, app.Config{
		Package:         "com.example.shop",
		MeanAUIInterval: 6 * time.Second,
	})

	svc := core.Start(clock, mgr, model, core.Config{AutoBypass: true})

	const minutes = 3
	clock.RunUntil(minutes * time.Minute)
	svc.Stop()
	shop.Stop()

	byClick, timedOut := 0, 0
	for _, h := range shop.History() {
		if h.DismissedByClick {
			byClick++
			fmt.Printf("popup at %7v (%s): closed by DARPA after %v\n",
				h.ShownAt.Round(time.Millisecond), h.AUI.Subject,
				(h.DismissedAt - h.ShownAt).Round(time.Millisecond))
		} else {
			timedOut++
			fmt.Printf("popup at %7v (%s): NOT bypassed (self-dismissed)\n",
				h.ShownAt.Round(time.Millisecond), h.AUI.Subject)
		}
	}
	fmt.Printf("\n%d popups in %d minutes: %d auto-bypassed, %d survived\n",
		byClick+timedOut, minutes, byClick, timedOut)
	fmt.Printf("DARPA stats: %+v\n", svc.Stats())
}
