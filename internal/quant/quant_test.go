package quant

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// warmModel returns a model whose batch-norm running statistics have been
// populated by a few training-mode passes, so folding is meaningful.
func warmModel(seed int64) (*yolite.Model, *tensor.Tensor) {
	m := yolite.NewModel(seed)
	rng := rand.New(rand.NewSource(seed + 7))
	x := tensor.New(2, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	for i := 0; i < 30; i++ {
		m.Forward(x, true)
	}
	return m, x
}

func TestFoldConvBNMatchesFloatPath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := tensor.NewConv2D(rng, 3, 4, 3, 2, 1)
	bn := tensor.NewBatchNorm2D(4)
	// Non-trivial BN state.
	for i := 0; i < 4; i++ {
		bn.Gamma.Data[i] = 0.5 + rng.Float32()
		bn.Beta.Data[i] = rng.Float32() - 0.5
		bn.RunMean[i] = rng.Float32()
		bn.RunVar[i] = 0.5 + rng.Float32()
	}
	x := tensor.New(1, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	want := bn.Forward(conv.Forward(x, false), false)

	w, b := tensor.FoldConvBN(conv, bn)
	folded := tensor.NewConv2D(rng, 3, 4, 3, 2, 1)
	copy(folded.W.Data, w)
	copy(folded.B.Data, b)
	got := folded.Forward(x, false)
	for i := range want.Data {
		if d := math.Abs(float64(want.Data[i] - got.Data[i])); d > 1e-4 {
			t.Fatalf("folded output differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestPortOutputsCloseToFloat(t *testing.T) {
	m, x := warmModel(2)
	calib := auigen.BuildAUISamples(3, 4, auigen.DatasetConfig{})
	qm := Port(m, calib)
	fu, fa := m.Forward(x, false)
	qu, qa := qm.Forward(x)
	if !fu.SameShape(qu) || !fa.SameShape(qa) {
		t.Fatal("quantised head shapes differ")
	}
	check := func(name string, f, q *tensor.Tensor) {
		var fMax float64
		for _, v := range f.Data {
			if a := math.Abs(float64(v)); a > fMax {
				fMax = a
			}
		}
		var errSum, n float64
		for i := range f.Data {
			errSum += math.Abs(float64(f.Data[i] - q.Data[i]))
			n++
		}
		meanErr := errSum / n
		// Mean error under ~6% of dynamic range: int8 is lossy but close.
		if meanErr > 0.06*fMax+1e-3 {
			t.Fatalf("%s: mean quantisation error %v vs range %v", name, meanErr, fMax)
		}
	}
	check("UPO", fu, qu)
	check("AGO", fa, qa)
}

func TestQuantisedWeightsInRange(t *testing.T) {
	m, _ := warmModel(3)
	qm := Port(m, nil)
	all := slices.Clone(qm.backbone)
	all = append(all, qm.upoHead, qm.agoHead)
	for li, l := range all {
		if len(l.qw) == 0 {
			t.Fatalf("layer %d has no quantised weights", li)
		}
		var nonZero int
		for _, w := range l.qw {
			if w != 0 {
				nonZero++
			}
		}
		if nonZero == 0 {
			t.Fatalf("layer %d quantised to all zeros", li)
		}
		for oc, s := range l.wScale {
			if s <= 0 {
				t.Fatalf("layer %d channel %d scale %v", li, oc, s)
			}
		}
	}
}

func TestWeightBytesSmallerThanFloat(t *testing.T) {
	m, _ := warmModel(4)
	qm := Port(m, nil)
	floatBytes := 0
	for _, p := range m.Params() {
		floatBytes += 4 * p.Len()
	}
	if qm.WeightBytes() >= floatBytes/2 {
		t.Fatalf("int8 port is %d bytes, float is %d — expected <50%%", qm.WeightBytes(), floatBytes)
	}
}

func TestPortWithoutCalibrationStillRuns(t *testing.T) {
	m, x := warmModel(5)
	qm := Port(m, nil)
	u, a := qm.Forward(x)
	if u == nil || a == nil {
		t.Fatal("no output")
	}
}

func TestPredictTensorImplementsPredictor(t *testing.T) {
	m, _ := warmModel(6)
	calib := auigen.BuildAUISamples(7, 2, auigen.DatasetConfig{})
	qm := Port(m, calib)
	x := yolite.CanvasToTensor(calib[0].Input)
	dets := qm.PredictTensor(x, 0, 0.0)
	// An untrained model fires arbitrarily; the contract is just that the
	// pipeline produces decodable detections without panicking.
	for _, d := range dets {
		if d.Score < 0 || d.Score > 1 {
			t.Fatalf("score %v out of range", d.Score)
		}
	}
}

// TestQuantisationPreservesDetections trains briefly, ports, and checks the
// int8 model finds most of what the float model finds (the Table III vs
// Table IV comparison in miniature).
func TestQuantisationPreservesDetections(t *testing.T) {
	if testing.Short() {
		t.Skip("training-based test skipped in -short mode")
	}
	samples := auigen.BuildAUISamples(8, 40, auigen.DatasetConfig{})
	m := yolite.Train(samples, yolite.TrainConfig{Epochs: 8, Seed: 3})
	qm := Port(m, samples[:8])
	floatEval := yolite.Evaluate(m, samples, 0.5)
	quantEval := yolite.Evaluate(qm, samples, 0.5)
	fF1 := floatEval.All().F1()
	qF1 := quantEval.All().F1()
	if qF1 < fF1-0.15 {
		t.Fatalf("quantisation lost too much: float F1=%v, int8 F1=%v", fF1, qF1)
	}
}

// TestInt8AgreesWithFloat is the differential test the int8 port's claim
// implies: on the checked-in weights, calibrated the way the registry
// calibrates "yolite-int8", int8 and float name the same options. Float
// detections stand in as ground truth at IoU 0.5, so TP counts the
// detections both make, FP those only int8 makes, FN those only float makes.
func TestInt8AgreesWithFloat(t *testing.T) {
	m := yolite.NewModel(1)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		t.Skip("no pretrained weights")
	}
	qm := Port(m, auigen.BuildAUISamples(1, 16, auigen.DatasetConfig{}))
	eval := metrics.NewEvaluation()
	for _, s := range auigen.BuildAUISamples(64, 64, auigen.DatasetConfig{}) {
		x := yolite.CanvasToTensor(s.Input)
		var truth []dataset.Box
		for _, d := range m.PredictTensor(x, 0, yolite.DefaultConfThresh) {
			truth = append(truth, dataset.Box{Class: d.Class, B: d.B})
		}
		eval.AddSample(qm.PredictTensor(x, 0, yolite.DefaultConfThresh), truth, 0.5)
	}
	// The counts are pinned exactly for the checked-in weights (amd64): an
	// exact kernel change must leave them alone, and a weight regeneration
	// re-pins them.
	c := eval.All()
	t.Logf("int8 vs float: %d shared, %d int8-only, %d float-only", c.TP, c.FP, c.FN)
	if c.TP != 105 || c.FP != 2 || c.FN != 4 {
		t.Fatalf("int8 vs float: %d shared, %d int8-only, %d float-only, want 105/2/4", c.TP, c.FP, c.FN)
	}
}

// TestBackendsRefuseWrongChannelCount feeds both backends a [1, 4, H, W]
// tensor. Each refuses it, the way tensor.Conv refuses any input whose size
// is not its channel count's (a panic, which detect.Guarded turns into an
// error), instead of answering from a misread buffer; a [1, 3, H, W] tensor
// still gets an answer.
func TestBackendsRefuseWrongChannelCount(t *testing.T) {
	m := yolite.NewModel(1)
	qm := Port(m, nil)
	predict := func(p yolite.Predictor, c int) (refused bool) {
		defer func() { refused = recover() != nil }()
		x := tensor.New(1, c, yolite.InputH, yolite.InputW)
		for i := range x.Data {
			x.Data[i] = float32(i%7) / 7
		}
		if _, err := p.PredictBatchCtx(context.Background(), x, yolite.DefaultConfThresh); err != nil {
			t.Fatalf("%T on %d channels: %v", p, c, err)
		}
		return false
	}
	for _, p := range []yolite.Predictor{m, qm} {
		if !predict(p, 4) {
			t.Errorf("%T answered a 4-channel tensor", p)
		}
		if predict(p, 3) {
			t.Errorf("%T refused a 3-channel tensor", p)
		}
	}
}

// TestPortScalesPinned pins calibrate and link bit for bit: every layer's
// inScale and outScale, backbone then the UPO and AGO heads, from a port
// calibrated on seeded generator screens. TestInt8PipelineScaleChain checks
// only how the scales are wired.
func TestPortScalesPinned(t *testing.T) {
	qm := Port(yolite.NewModel(5), auigen.BuildAUISamples(9, 3, auigen.DatasetConfig{}))
	var got []uint32
	for _, l := range slices.Concat(qm.backbone, []*qconv{qm.upoHead, qm.agoHead}) {
		got = append(got, math.Float32bits(l.inScale), math.Float32bits(l.outScale))
	}
	want := []uint32{0x3c010204, 0x3ca292c2, 0x3ca292c2, 0x3cdea271, 0x3cdea271, 0x3d0bd604, 0x3d0bd604, 0x3d031e4f,
		0x3d031e4f, 0x3cb36854, 0x3cb36854, 0x3cb6c975, 0x3d031e4f, 0, 0x3cb6c975, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("scale bits %#x, want %#x", got, want)
	}
}
