// Quickstart: generate one asymmetric dark UI screen, run the detector on
// it, and print what DARPA would highlight.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/yolite"
)

func main() {
	// 1. A detector, built by name from the registry. Pretrained weights are
	//    used when available; otherwise the builder trains a small model on
	//    the spot (about a minute on one core).
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

	// 2. A dark pattern. The generator builds an advertisement AUI like
	//    Figure 1 of the paper: a big tempting button and a tiny corner X.
	g := auigen.New(99, auigen.Config{})
	sample := g.RenderAUI(g.AUIFor(dataset.SubjectAdvertisement, 192, 308), auigen.DatasetConfig{})

	fmt.Println("ground truth on this screen:")
	for _, b := range sample.Boxes {
		fmt.Printf("  %-3s at %v\n", b.Class, b.B.Rect())
	}

	// 3. Detection. The same call DARPA's runtime makes on every stable
	//    screenshot.
	dets, err := detect.PredictCanvasCtx(context.Background(), model, sample.Input, yolite.DefaultConfThresh)
	if err != nil {
		panic(err)
	}
	fmt.Println("detected:")
	if len(dets) == 0 {
		fmt.Println("  nothing (try training longer or using pretrained weights)")
	}
	for _, d := range dets {
		role := "highlight in red (app-guided option)"
		if d.Class == dataset.ClassUPO {
			role = "highlight in green (user-preferred option)"
		}
		fmt.Printf("  %-3s at %v, confidence %.2f -> %s\n", d.Class, d.B.Rect(), d.Score, role)
	}
}
