// Command darpa-train builds the synthetic D_aui dataset, trains the yolite
// detector (plus the text-masked variant and the RCNN baselines), and saves
// the weights under -out. The experiment harness and the examples load
// these weights instead of retraining.
//
// Usage:
//
//	darpa-train -out weights [-samples 1072] [-epochs 28] [-quick] [-skip-rcnn] [-skip-masked]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/rcnn"
	"repro/internal/yolite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("darpa-train: ")
	out := flag.String("out", "weights", "output directory for weight files")
	samples := flag.Int("samples", auigen.PaperDatasetSize, "number of AUI screenshots to generate")
	epochs := flag.Int("epochs", 28, "training epochs")
	quick := flag.Bool("quick", false, "tiny configuration for smoke testing")
	skipRCNN := flag.Bool("skip-rcnn", false, "skip the four RCNN baselines")
	skipMasked := flag.Bool("skip-masked", false, "skip the text-masked variant")
	flag.Parse()

	if *quick {
		*samples = 80
		*epochs = 8
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("creating %s: %v", *out, err)
	}

	cfg := experiments.DataConfig()
	log.Printf("generating %d AUI samples...", *samples)
	all := auigen.BuildAUISamples(experiments.DatasetSeed, *samples, cfg)
	split := dataset.SplitSamples(all, experiments.SplitRand())
	log.Printf("split: %d train / %d val / %d test", len(split.Train), len(split.Val), len(split.Test))

	train := func(name string, samples []*dataset.Sample) {
		start := time.Now()
		m := yolite.Train(samples, yolite.TrainConfig{
			Epochs: *epochs,
			Seed:   experiments.ModelSeed,
			Progress: func(e int, l float64) {
				if e%4 == 0 || e == *epochs-1 {
					log.Printf("  %s epoch %d loss %.3f", name, e, l)
				}
			},
		})
		path := filepath.Join(*out, name+".gob")
		if err := m.Save(path); err != nil {
			log.Fatalf("saving %s: %v", path, err)
		}
		ev := yolite.Evaluate(m, split.Test, 0.9)
		log.Printf("%s trained in %v — test F1@0.9 = %.3f -> %s",
			name, time.Since(start).Round(time.Second), ev.All().F1(), path)
	}

	trainSet := append(append([]*dataset.Sample{}, split.Train...), split.Val...)
	negs := auigen.BuildNegativeSamples(experiments.DatasetSeed+1,
		int(float64(len(trainSet))*experiments.NegativeFraction), cfg)
	train("yolite", append(append([]*dataset.Sample{}, trainSet...), negs...))

	if !*skipMasked {
		log.Printf("generating text-masked dataset...")
		maskedCfg := cfg
		maskedCfg.MaskText = true
		maskedAll := auigen.BuildAUISamples(experiments.DatasetSeed, *samples, maskedCfg)
		maskedSplit := dataset.SplitSamples(maskedAll, experiments.SplitRand())
		maskedTrain := append(append([]*dataset.Sample{}, maskedSplit.Train...), maskedSplit.Val...)
		maskedNegs := auigen.BuildNegativeSamples(experiments.MaskedSeed+1,
			int(float64(len(maskedTrain))*experiments.NegativeFraction), maskedCfg)
		train("yolite_masked", append(maskedTrain, maskedNegs...))
	}

	if !*skipRCNN {
		rcnnEpochs := max(4, *epochs/3)
		for _, v := range rcnn.Variants {
			start := time.Now()
			m := rcnn.Train(v, trainSet, rcnn.TrainConfig{Epochs: rcnnEpochs, Seed: experiments.ModelSeed})
			_ = m
			ev := yolite.Evaluate(m, split.Test, 0.9)
			log.Printf("%s trained in %v — test F1@0.9 = %.3f (not persisted: retrained by harness)",
				v.Name(), time.Since(start).Round(time.Second), ev.All().F1())
		}
	}
	fmt.Println("done")
}
