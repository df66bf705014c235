package yolite_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/rcnn"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

var classes = []dataset.Class{dataset.ClassUPO, dataset.ClassAGO}

// perScreen is the oracle: each screen predicted on its own and matched
// against its labels.
func perScreen(p yolite.Predictor, samples []*dataset.Sample, iouThresh float64) *metrics.Evaluation {
	eval := metrics.NewEvaluation()
	for _, s := range samples {
		eval.AddSample(yolite.PredictInput(p, s.Input, yolite.DefaultConfThresh), s.Boxes, iouThresh)
	}
	return eval
}

// TestEvaluateMatchesPerScreen: the batched scorer gives every backend the
// per-class counts the per-screen oracle gives, on 19 screens (two full
// chunks and a short one) at the loose and the paper's IoU.
func TestEvaluateMatchesPerScreen(t *testing.T) {
	samples := auigen.BuildAUISamples(5, 19, auigen.DatasetConfig{})
	float := yolite.NewModel(3)
	if err := float.Load("../../weights/yolite.gob"); err != nil {
		t.Log("no pretrained weights; scoring an untrained model")
	}
	backends := []struct {
		name string
		p    yolite.Predictor
	}{
		{"yolite", float},
		{"yolite-int8", quant.Port(float, samples[:4])},
		{"rcnn", rcnn.Train(rcnn.Variants[3], samples, rcnn.TrainConfig{Epochs: 2, Seed: 2})},
	}
	for _, b := range backends {
		for _, iou := range []float64{0.5, 0.9} {
			want := perScreen(b.p, samples, iou)
			got := yolite.Evaluate(b.p, samples, iou)
			for _, cls := range classes {
				if got.Class(cls) != want.Class(cls) {
					t.Errorf("%s %s@%.1f: Evaluate %+v, per screen %+v", b.name, cls, iou, got.Class(cls), want.Class(cls))
				}
			}
			if c := want.All(); iou == 0.5 && c.TP == 0 {
				t.Errorf("%s@%.1f matched nothing (%+v): the comparison is vacuous", b.name, iou, c)
			}
		}
	}
}

// oracleStub answers each screen with its own labels, looked up by call and
// batch slot, and fails one call.
type oracleStub struct {
	samples []*dataset.Sample
	fail    int // 1-based call that errors
	sizes   []int
}

func (s *oracleStub) PredictBatchCtx(_ context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	start := 0
	for _, n := range s.sizes {
		start += n
	}
	s.sizes = append(s.sizes, x.Shape[0])
	if len(s.sizes) == s.fail {
		return nil, errors.New("stub: chunk failed")
	}
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		for _, b := range s.samples[start+i].Boxes {
			out[i] = append(out[i], metrics.Detection{Class: b.Class, B: b.B, Score: 1})
		}
	}
	return out, nil
}

// TestEvaluateFailedChunkScoresAllFN: a chunk the backend fails scores as no
// detections, so each of its boxes is a false negative, and the chunks around
// it still score.
func TestEvaluateFailedChunkScoresAllFN(t *testing.T) {
	samples := auigen.BuildAUISamples(5, 19, auigen.DatasetConfig{})
	stub := &oracleStub{samples: samples, fail: 2}
	got := yolite.Evaluate(stub, samples, 0.9)
	if want := []int{8, 8, 3}; !reflect.DeepEqual(stub.sizes, want) {
		t.Fatalf("chunks %v, want %v", stub.sizes, want)
	}
	for _, cls := range classes {
		var want metrics.Counts
		for i, s := range samples {
			for _, b := range s.Boxes {
				if b.Class != cls {
					continue
				}
				if i >= 8 && i < 16 {
					want.FN++
				} else {
					want.TP++
				}
			}
		}
		if want.FN == 0 {
			t.Fatalf("%s: failed chunk holds no boxes", cls)
		}
		if got.Class(cls) != want {
			t.Errorf("%s: %+v, want %+v", cls, got.Class(cls), want)
		}
	}
}
