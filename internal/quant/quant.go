// Package quant reimplements the paper's model-porting pipeline (Section
// IV-C): the trained detector is prepared for the "device" by folding
// batch-norm statistics into convolution weights (the paper's "replace the
// internal redundant calculations in the model with constants") and then
// quantising weights and activations to int8 with per-channel weight scales
// and calibration-derived activation scales — the ncnn-style int8 path.
//
// Inference runs with int8 multiplications accumulated in int32, exactly the
// arithmetic an ARM CPU would execute, so the accuracy loss measured in the
// experiments (Table III vs Table IV) is the genuine quantisation error.
//
// The port is the fast path as well as the small one, as in the paper: integer
// products are exact, so the GEMM carries two weight rows in one 64-bit lane
// pair and gets two MACs from every multiply (gemmPairs in int8gemm.go),
// which float arithmetic cannot do. The batched int8 forward outruns the
// float one (cmd/darpa-bench, audit-batch: audit_int8_screens_per_s against
// audit_screens_per_s).
package quant

import (
	"context"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// qconv is an int8-quantised convolution layer: a backbone layer's
// tensor.ConvKernel, and a head's as a qhead (int8gemm.go).
type qconv struct {
	tensor.ConvGeom
	w, b    []float32 // folded float weights [OutC][InC*K*K] and bias
	qw      []int8    // quantised weights: canonical (WeightBytes, the test oracle)
	qwp     []int64   // qw as packed row pairs, the layout gemmPairs reads (see packPairs)
	wScale  []float32 // per-output-channel weight scale
	inScale float32   // activation scale (from calibration)
	relu    bool      // apply leaky-ReLU(0.1) after

	// End-to-end int8 chain constants, set by Model.link once every
	// calibration scale is known. outScale is the next layer's inScale (the
	// trunk's is shared by the UPO head and B4 — calibration observes the
	// same tensor for both, and link makes the equality structural); rq and
	// bq fold dequantise + bias + requantise into one multiply-add per
	// accumulator: rq = wScale*inScale/outScale, bq = bias/outScale. Heads
	// emit float32 and leave them nil.
	outScale float32
	rq, bq   []float32
}

// quantiseWeights converts folded float weights to int8 with per-channel
// symmetric scales, and derives the packed-pair layout the GEMM multiplies.
func (q *qconv) quantiseWeights() {
	per := q.InC * q.K * q.K
	q.qw = make([]int8, len(q.w))
	q.wScale = make([]float32, q.OutC)
	for oc := 0; oc < q.OutC; oc++ {
		var maxAbs float32
		for i := 0; i < per; i++ {
			v := q.w[oc*per+i]
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			maxAbs = 1e-8
		}
		scale := maxAbs / 127
		q.wScale[oc] = scale
		for i := 0; i < per; i++ {
			v := q.w[oc*per+i] / scale
			q.qw[oc*per+i] = int8(clamp(math.Round(float64(v)), -127, 127))
		}
	}
	q.qwp = packPairs(q.qw, q.OutC, per)
}

// Model is the ported, int8 detector — the artefact DARPA embeds in the
// on-device app.
type Model struct {
	backbone []*qconv // B1..B5; B3b's output is the stride-8 trunk
	upoHead  *qconv   // reads the trunk
	agoHead  *qconv   // reads B5's output

	// DisableRefine turns off the edge-snapping post-processor, mirroring
	// yolite.Model.DisableRefine so refine-ablation benchmarks compare the
	// float and int8 backends like-for-like. Port seeds it from the source
	// model.
	DisableRefine bool

	// Pool mirrors yolite.Model.Pool: when set, inference draws activation
	// buffers (and the int8 scratch) from it instead of allocating per
	// layer. Port carries it over from the source model. Training never
	// goes through this backend, so every path may pool.
	Pool *tensor.Pool
}

func newQConvFromBlock(seq *nn.Sequential) *qconv {
	conv, bn, _ := nn.ConvBNActParts(seq)
	q := &qconv{ConvGeom: conv.ConvGeom, relu: true}
	q.w, q.b = tensor.FoldConvBN(conv, bn)
	q.quantiseWeights()
	return q
}

func newQConvFromHead(conv *tensor.Conv2D) *qconv {
	q := &qconv{ConvGeom: conv.ConvGeom, w: slices.Clone(conv.W.Data), b: slices.Clone(conv.B.Data)}
	q.quantiseWeights()
	return q
}

// Port converts a trained float model into the int8 device model,
// calibrating activation scales on the given samples (a handful of training
// images suffices; the paper's ncnn flow does the same).
func Port(m *yolite.Model, calib []*dataset.Sample) *Model {
	qm := &Model{
		upoHead:       newQConvFromHead(m.UPOHead),
		agoHead:       newQConvFromHead(m.AGOHead),
		DisableRefine: m.DisableRefine,
		Pool:          m.Pool,
	}
	for _, s := range []*nn.Sequential{m.B1, m.B2, m.B3, m.B3b, m.B4, m.B5} {
		qm.backbone = append(qm.backbone, newQConvFromBlock(s))
	}
	qm.calibrate(m, calib)
	qm.link()
	return qm
}

// link derives the end-to-end int8 chain constants from the calibration
// scales: each backbone layer's output scale is the scale its consumer
// quantises with, so activations flow between layers as int8 without a float
// round trip. The stride-8 trunk feeds both the UPO head and B4; calibration
// observed the same tensor for both inputs, and link pins the head to the
// deep chain's scale so the shared buffer is valid for both by construction.
func (qm *Model) link() {
	qm.upoHead.inScale = qm.backbone[4].inScale
	for i, l := range qm.backbone {
		l.outScale = qm.agoHead.inScale
		if i+1 < len(qm.backbone) {
			l.outScale = qm.backbone[i+1].inScale
		}
		l.rq = make([]float32, l.OutC)
		l.bq = make([]float32, l.OutC)
		for oc := 0; oc < l.OutC; oc++ {
			l.rq[oc] = l.wScale[oc] * l.inScale / l.outScale
			l.bq[oc] = l.b[oc] / l.outScale
		}
	}
}

// calibrate runs the float model over the calibration set recording the
// maximum absolute activation entering each layer, and sets the int8 scales.
func (qm *Model) calibrate(m *yolite.Model, calib []*dataset.Sample) {
	maxIn := make([]float32, 8) // b1,b2,b3,b3b,b4,b5,upoHead,agoHead
	observe := func(idx int, t *tensor.Tensor) {
		for _, v := range t.Data {
			if v < 0 {
				v = -v
			}
			if v > maxIn[idx] {
				maxIn[idx] = v
			}
		}
	}
	if len(calib) == 0 {
		// No calibration data: assume unit-range activations.
		for i := range maxIn {
			maxIn[i] = 1
		}
	}
	for _, s := range calib {
		x := yolite.CanvasToTensor(s.Input)
		observe(0, x)
		h := m.B1.Forward(x, false)
		observe(1, h)
		h = m.B2.Forward(h, false)
		observe(2, h)
		h = m.B3.Forward(h, false)
		observe(3, h)
		h = m.B3b.Forward(h, false)
		observe(6, h) // UPO head input
		observe(4, h) // B4 input
		h = m.B4.Forward(h, false)
		observe(5, h)
		h = m.B5.Forward(h, false)
		observe(7, h) // AGO head input
	}
	for i, l := range slices.Concat(qm.backbone, []*qconv{qm.upoHead, qm.agoHead}) {
		if maxIn[i] == 0 {
			maxIn[i] = 1
		}
		l.inScale = maxIn[i] / 127
	}
}

// Forward runs the quantised network with no deadline, returning both raw
// head maps: pooled float32 buffers owned by the caller.
func (qm *Model) Forward(x *tensor.Tensor) (upo, ago *tensor.Tensor) {
	upo, ago, _ = qm.forwardInt8(context.Background(), x)
	return upo, ago
}

// forwardInt8 is the end-to-end int8 pipeline. The input is quantised to
// int8 once, item by item, and the activations stay int8 across the entire
// backbone (see int8gemm.go): layer outputs at each step carry the scale the
// next layer expects (see link), so no float activations exist between the
// input quantisation and the head dequantisation. Every layer runs through
// tensor.Conv, which refuses an input of the wrong channel count. The int8
// intermediates recycle through the bucketed int8 scratch pool and the head
// maps come from the Pool, so the steady-state forward is allocation free.
// ctx is a cooperative cancellation checkpoint between layers (and, via its
// Done channel, between column-block tasks inside each layer): once the
// cancel is observed the partially written activations go back to their
// pools and ctx.Err() is returned.
func (qm *Model) forwardInt8(ctx context.Context, x *tensor.Tensor) (upo, ago *tensor.Tensor, err error) {
	p := qm.Pool
	done := ctx.Done()
	N, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	cur := i8s.Get(len(x.Data))
	if N > 1 {
		// One item per task. Capturing cur, which is reassigned below, would
		// move it to the heap on every forward, N = 1 included.
		q, per := *cur, len(x.Data)/N
		tensor.ParallelFor(N, func(n int) {
			quantI8(q[n*per:(n+1)*per], x.Data[n*per:(n+1)*per], qm.backbone[0].inScale)
		})
	} else {
		quantI8(*cur, x.Data, qm.backbone[0].inScale)
	}
	// Output labels alternate between the halves of a buffer sized for B1's.
	oh, ow := qm.backbone[0].OutSize(h, w)
	labs, half := i32s.Get(2*N*oh*ow), N*oh*ow
	defer i32s.Put(labs)
	var lab []int32 // cur's labels; B1 labels its input itself
	for i, b := range qm.backbone {
		if i == 4 {
			// cur is the stride-8 trunk, int8 at the scale both consumers
			// expect: the UPO head reads it before B4 consumes it.
			upo = qm.head(qm.upoHead, *cur, N, h, w, done)
		}
		oh, ow := b.OutSize(h, w)
		nxt, next := i8s.Get(N*b.OutC*oh*ow), (*labs)[i%2*half:i%2*half+N*oh*ow]
		tensor.Conv(b, *cur, N, h, w, *nxt, lab, next, done)
		i8s.Put(cur)
		cur, lab, h, w = nxt, next, oh, ow
		if err := ctx.Err(); err != nil {
			i8s.Put(cur)
			p.Put(upo)
			return nil, nil, err
		}
	}
	ago = qm.head(qm.agoHead, *cur, N, h, w, done)
	i8s.Put(cur)
	if err := ctx.Err(); err != nil {
		p.Put(upo)
		p.Put(ago)
		return nil, nil, err
	}
	return upo, ago, nil
}

// head runs head q over the int8 activations x into a float map from the
// Pool.
func (qm *Model) head(q *qconv, x []int8, N, h, w int, done <-chan struct{}) *tensor.Tensor {
	oh, ow := q.OutSize(h, w)
	y := qm.Pool.Get(N, q.OutC, oh, ow)
	tensor.Conv((*qhead)(q), x, N, h, w, y.Data, nil, nil, done)
	return y
}

// PredictBatchCtx is the detector seam with int8 inference: one forward over
// the whole [N, 3, H, W] batch, every item decoded by the float model's
// yolite.DecodeBatch. The contract is yolite.Model.PredictBatchCtx's: a dead
// ctx returns ctx.Err() before any work, a cancel aborts within roughly one
// conv layer (or between decoded items) with a nil result, and a context
// that never fires computes exactly what Background does.
func (qm *Model) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, confThresh float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	upo, ago, err := qm.forwardInt8(ctx, x)
	if err != nil {
		return nil, err
	}
	defer func() {
		qm.Pool.Put(upo)
		qm.Pool.Put(ago)
	}()
	return yolite.DecodeBatch(ctx, x, upo, ago, confThresh, !qm.DisableRefine, qm.Pool)
}

// PredictTensor is a shim kept for cmd/darpa-bench, which times the int8
// model through this name: PredictBatchCtx with no deadline, item n of the
// answer. Nothing else calls it.
func (qm *Model) PredictTensor(x *tensor.Tensor, n int, confThresh float64) []metrics.Detection {
	out, _ := qm.PredictBatchCtx(context.Background(), x, confThresh)
	return out[n]
}

var _ yolite.Predictor = (*Model)(nil)

// Name identifies the backend in registries and result tables.
func (qm *Model) Name() string { return "yolite-int8" }

// SetPool mirrors yolite.Model.SetPool: the seam detect.Build installs a
// private activation pool through. Must not be called while a forward is in
// flight.
func (qm *Model) SetPool(p *tensor.Pool) { qm.Pool = p }

// WeightBytes reports the size of the quantised weights in bytes, the
// "smaller model size" the paper credits ncnn with.
func (qm *Model) WeightBytes() int {
	n := 0
	for _, l := range slices.Concat(qm.backbone, []*qconv{qm.upoHead, qm.agoHead}) {
		n += len(l.qw) + 4*len(l.b) + 4*len(l.wScale) + 4
	}
	return n
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
