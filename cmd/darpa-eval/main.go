// Command darpa-eval evaluates the detectors on the held-out test split and
// prints Tables III-V (the accuracy experiments) without running the
// device-level simulations.
//
// Usage:
//
//	darpa-eval [-quick] [-weights weights] [-iou 0.9] [-detector yolite-int8] [-list]
//	darpa-eval -attack [-attack-seed 7002] [-write-corpus] [-attack-out BENCH_adversary.json]
//	darpa-eval -attack-smoke
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/experiments"
	"repro/internal/yolite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("darpa-eval: ")
	quick := flag.Bool("quick", false, "reduced dataset/epochs")
	weights := flag.String("weights", "weights", "pretrained weights directory")
	iou := flag.Float64("iou", 0.9, "IoU matching threshold")
	detector := flag.String("detector", "yolite-int8", "registry backend to evaluate (see -list)")
	list := flag.Bool("list", false, "list registered detector backends and exit")
	attack := flag.Bool("attack", false, "run the adversarial sweep: search, mine, recall-under-attack, harden")
	attackSmoke := flag.Bool("attack-smoke", false, "seeded 30-iteration attack replay check (CI smoke)")
	attackSeed := flag.Int64("attack-seed", 7002, "master seed for the adversarial sweep")
	attackOut := flag.String("attack-out", "BENCH_adversary.json", "adversarial benchmark output (empty = skip)")
	corpusPath := flag.String("corpus-path", adversary.DefaultCorpusPath, "mined corpus location")
	writeCorpus := flag.Bool("write-corpus", false, "overwrite the checked-in corpus with this run's mine")
	attackSkipRCNN := flag.Bool("attack-skip-rcnn", false, "leave the RCNN baseline out (faster)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(detect.Names(), "\n"))
		return
	}
	// The attack modes build their own backends and screens; they run before
	// NewEnv, which would eagerly generate the full 1072-sample dataset.
	if *attackSmoke || *attack {
		sweep := experiments.PaperAttackSweep(*attackSeed)
		sweep.Weights, sweep.Out, sweep.CorpusPath = *weights, *attackOut, *corpusPath
		sweep.WriteCorpus, sweep.SkipRCNN, sweep.Logf = *writeCorpus, *attackSkipRCNN, log.Printf
		run := sweep.Run
		if *attackSmoke {
			run = sweep.Smoke
		}
		if err := run(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	// The test split is pixels and labels only: a backend that reads the live
	// view hierarchy would score a row of zeros. Refused by name, before
	// NewEnv generates a dataset it could not use.
	if *detector == "frauddroid" {
		log.Fatalf("%s reads view metadata, which the test split does not carry; -attack scores it on live screens", *detector)
	}
	opts := []experiments.EnvOption{
		experiments.WithWeightsDir(*weights),
		experiments.WithLogf(log.Printf),
	}
	if *quick {
		opts = append(opts, experiments.WithQuick())
	}
	env := experiments.NewEnv(opts...)

	if *iou != 0.9 || *detector != "yolite-int8" {
		// Custom threshold or backend: print a compact per-class report.
		d, err := env.Detector(*detector)
		if err != nil {
			log.Fatal(err)
		}
		eval := yolite.Evaluate(d, env.Split().Test, *iou)
		for _, cls := range []dataset.Class{dataset.ClassUPO, dataset.ClassAGO} {
			c := eval.Class(cls)
			fmt.Printf("%s %s@IoU%.2f  P=%.3f R=%.3f F1=%.3f\n", d.Name(), cls, *iou, c.Precision(), c.Recall(), c.F1())
		}
		all := eval.All()
		fmt.Printf("%s All@IoU%.2f  P=%.3f R=%.3f F1=%.3f\n", d.Name(), *iou, all.Precision(), all.Recall(), all.F1())
		return
	}
	fmt.Println(env.Table3().Format())
	fmt.Println(env.Table4().Format())
	fmt.Println(env.Table5().Format())
}
