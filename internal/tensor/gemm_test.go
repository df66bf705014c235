package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// directConvPlane fills output plane (n, oc) with the direct nested loop —
// the oracle the GEMM lowering is pinned against, bit for bit. It is
// test-only because it never wins (BenchmarkConvKernels). The arithmetic
// order within a plane is fixed: bias first, then taps in (ic, kh, kw)
// order, out-of-bounds taps skipped, each product rounded to float32 before
// it is added, so no GOARCH fuses the two.
func directConvPlane(x, y *Tensor, spec ConvGeom, w []float32, bias float32, n, oc int) {
	C, H, W := x.Shape[1], x.Shape[2], x.Shape[3]
	OH, OW := y.Shape[2], y.Shape[3]
	kk := spec.K
	plane := H * W
	wPer := kk * kk
	wPlane0 := oc * spec.InC * wPer
	inPlane0 := n * C * plane
	outBase := ((n*spec.OutC + oc) * OH) * OW
	for oh := 0; oh < OH; oh++ {
		ihBase := oh*spec.Stride - spec.Pad
		outRow := outBase + oh*OW
		for ow := 0; ow < OW; ow++ {
			iwBase := ow*spec.Stride - spec.Pad
			sum := bias
			wBase, inBase := wPlane0, inPlane0
			for ic := 0; ic < spec.InC; ic++ {
				for kh := 0; kh < kk; kh++ {
					ih := ihBase + kh
					if ih < 0 || ih >= H {
						continue
					}
					inRow := inBase + ih*W
					wRow := wBase + kh*kk
					for kw := 0; kw < kk; kw++ {
						iw := iwBase + kw
						if iw < 0 || iw >= W {
							continue
						}
						sum += float32(w[wRow+kw] * x.Data[inRow+iw])
					}
				}
				wBase += wPer
				inBase += plane
			}
			y.Data[outRow+ow] = sum
		}
	}
}

// directConvRef computes the convolution with the plain nested loop for every
// output plane — the reference the GEMM path must match bit-for-bit.
func directConvRef(x *Tensor, spec ConvGeom, w, bias []float32) *Tensor {
	N, _, H, W := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	OH := (H+2*spec.Pad-spec.K)/spec.Stride + 1
	OW := (W+2*spec.Pad-spec.K)/spec.Stride + 1
	y := New(N, spec.OutC, OH, OW)
	directConvInto(x, y, spec, w, bias)
	return y
}

// directConvInto runs the oracle over every output plane of y, serially.
func directConvInto(x, y *Tensor, spec ConvGeom, w, bias []float32) {
	for n := 0; n < x.Shape[0]; n++ {
		for oc := 0; oc < spec.OutC; oc++ {
			directConvPlane(x, y, spec, w, bias[oc], n, oc)
		}
	}
}

// randomConv builds a random input and weight set for a given geometry.
func randomConv(rng *rand.Rand, n, c, h, w, outC, kk, stride, pad int) (*Tensor, ConvGeom, []float32, []float32) {
	x := New(n, c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	spec := ConvGeom{c, outC, kk, stride, pad}
	wt := make([]float32, outC*c*kk*kk)
	for i := range wt {
		wt[i] = rng.Float32()*2 - 1
	}
	bias := make([]float32, outC)
	for i := range bias {
		bias[i] = rng.Float32()*2 - 1
	}
	return x, spec, wt, bias
}

// convInto runs Conv on x into y through a real kernel: FusedConvBNAct's
// at slope when act is set, Conv2D's otherwise.
func convInto(x, y *Tensor, g ConvGeom, w, bias []float32, act bool, slope float32) {
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	if act {
		Conv(&FusedConvBNAct{ConvGeom: g, W: w, B: bias, Slope: slope}, x.Data, N, H, W, y.Data, nil)
		return
	}
	Conv(&Conv2D{ConvGeom: g, W: &Tensor{Data: w}, B: &Tensor{Data: bias}}, x.Data, N, H, W, y.Data, nil)
}

// repeatInputs are [n, c, h, w] maps whose receptive fields repeat the way
// a screen's do, each batch item with values of its own: a flat field with
// a rectangle on it, a 3x5 tile repeated across the map, a constant map, an
// all-zero map, and a map of +0 and -0 halves with a different NaN payload
// in two far corners, whose signs and payloads the outputs must keep.
func repeatInputs(rng *rand.Rand, n, c, h, w int) []*Tensor {
	flat, tile, cnst, zero, signed := New(n, c, h, w), New(n, c, h, w), New(n, c, h, w), New(n, c, h, w), New(n, c, h, w)
	negZero := float32(math.Copysign(0, -1))
	nanA, nanB := math.Float32frombits(0x7fc00001), math.Float32frombits(0x7fc00002)
	for item := 0; item < n; item++ {
		bg, fg, v := rng.Float32(), rng.Float32(), rng.Float32()*2-1
		x0, y0 := rng.Intn(w), rng.Intn(h)
		x1, y1 := x0+1+rng.Intn(w-x0), y0+1+rng.Intn(h-y0)
		tl := make([]float32, c*15)
		for i := range tl {
			tl[i] = rng.Float32()
		}
		for ic := 0; ic < c; ic++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					i := ((item*c+ic)*h+y)*w + x
					flat.Data[i] = bg + float32(ic)
					if x >= x0 && x < x1 && y >= y0 && y < y1 {
						flat.Data[i] = fg + float32(ic)
					}
					tile.Data[i] = tl[(ic*3+y%3)*5+x%5]
					cnst.Data[i] = v
					switch far := h >= 8 && w >= 8; {
					case far && x < 2 && y < 2:
						signed.Data[i] = nanA
					case far && x >= w-2 && y >= h-2:
						signed.Data[i] = nanB
					case x >= w/2:
						signed.Data[i] = negZero
					}
				}
			}
		}
	}
	return []*Tensor{flat, tile, cnst, zero, signed}
}

// requireSameBits fails at the first element whose bits differ: the float
// oracles demand the GEMM path's exact bits, NaN payloads and zero signs
// included.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d differs: gemm %v (%#x), direct %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// convShape is one convolution geometry: input [n, c, h, w], outC kernels of
// kk x kk at the given stride and padding.
type convShape struct{ n, c, h, w, outC, kk, stride, pad int }

// productionConvShapes are the convolutions the shipped models run, at N=1:
// the eight yolite layers on the 96x160 input (down to the 2 400-MAC AGO
// head) and the three rcnn backbone layers on a 24x24 proposal crop.
var productionConvShapes = []struct {
	name string
	convShape
}{
	{"yolite_b1", convShape{1, 3, 160, 96, 10, 3, 2, 1}},
	{"yolite_b2", convShape{1, 10, 80, 48, 16, 3, 2, 1}},
	{"yolite_b3", convShape{1, 16, 40, 24, 24, 3, 2, 1}},
	{"yolite_b3b", convShape{1, 24, 20, 12, 24, 3, 1, 1}},
	{"yolite_b4", convShape{1, 24, 20, 12, 32, 3, 2, 1}},
	{"yolite_b5", convShape{1, 32, 10, 6, 32, 3, 2, 1}},
	{"yolite_upo_head", convShape{1, 24, 20, 12, 5, 1, 1, 0}},
	{"yolite_ago_head", convShape{1, 32, 5, 3, 5, 1, 1, 0}},
	{"rcnn_c1", convShape{1, 3, 24, 24, 8, 3, 1, 1}},
	{"rcnn_c2", convShape{1, 8, 12, 12, 16, 3, 1, 1}},
	{"rcnn_c3", convShape{1, 16, 6, 6, 16, 3, 1, 1}},
}

// TestConvGemmMatchesDirect pins the core bit-exactness claim: the im2col +
// blocked GEMM path produces exactly the float32 bits of the direct nested
// loop across every production shape (N=1 and N=8) and randomized geometry,
// including 1x1 kernels, stride > 1, padding >= k/2, and spatial sizes
// smaller than the kernel — on random data and on repeatInputs, screen-like
// maps with signed zeros and NaN payloads (the B1 geometry cuts an item
// into four column blocks, some starting mid-row).
func TestConvGemmMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []convShape{
		{1, 3, 8, 8, 4, 3, 1, 1},
		{2, 3, 160, 96, 10, 3, 2, 1}, // yolite B1 geometry
		{1, 16, 40, 24, 24, 3, 2, 1}, // mid-backbone geometry
		{1, 32, 5, 3, 21, 1, 1, 0},   // 1x1 head on the AGO grid
		{1, 4, 2, 2, 3, 3, 1, 2},     // input smaller than kernel, heavy pad
		{1, 2, 1, 1, 2, 3, 2, 1},     // degenerate 1x1 spatial
		{3, 5, 9, 7, 6, 3, 3, 1},     // stride 3, odd sizes
		{1, 1, 6, 6, 1, 5, 2, 2},     // big kernel, pad = k/2
		{2, 8, 12, 12, 8, 1, 1, 0},   // 1x1 fast path with batch
		{1, 6, 7, 11, 5, 3, 2, 0},    // no padding, non-square
		{1, 2, 6, 6, 3, 3, 1, 3},     // windows wholly in padding
		{2, 3, 12, 12, 4, 3, 1, 0},   // no padding: a constant map is one column
	}
	for _, ps := range productionConvShapes {
		for _, n := range []int{1, 8} {
			s := ps.convShape
			s.n = n
			cases = append(cases, s)
		}
	}
	for i := 0; i < 12; i++ { // and a dozen fully random geometries
		kk := 1 + rng.Intn(3)*2 // 1, 3, 5
		cases = append(cases, convShape{
			n: 1 + rng.Intn(3), c: 1 + rng.Intn(8),
			h: 1 + rng.Intn(20), w: 1 + rng.Intn(20),
			outC: 1 + rng.Intn(12), kk: kk,
			stride: 1 + rng.Intn(3), pad: rng.Intn(kk/2 + 2),
		})
	}
	for _, s := range cases {
		if s.h+2*s.pad < s.kk || s.w+2*s.pad < s.kk {
			s.pad = s.kk // keep the output non-empty
		}
		x, spec, wt, bias := randomConv(rng, s.n, s.c, s.h, s.w, s.outC, s.kk, s.stride, s.pad)
		for k, in := range append([]*Tensor{x}, repeatInputs(rng, s.n, s.c, s.h, s.w)...) {
			want := directConvRef(in, spec, wt, bias)
			got := New(want.Shape...)
			convInto(in, got, spec, wt, bias, false, 0)
			requireSameBits(t, fmt.Sprintf("shape %+v input %d", s, k), got.Data, want.Data)
		}
	}
	// With a -0 bias and positive weights a window of -0 taps sums to -0 and
	// one of +0 taps to +0, so a merge by value would flip signs. No padding:
	// the direct loop skips padding taps that the panel adds as w*(+0), and
	// -0 + +0 is +0.
	x := repeatInputs(rng, 2, 3, 12, 12)[4]
	_, spec, wt, bias := randomConv(rng, 2, 3, 12, 12, 4, 3, 1, 0)
	for i := range wt {
		wt[i] = float32(math.Abs(float64(wt[i])))
	}
	for i := range bias {
		bias[i] = float32(math.Copysign(0, -1))
	}
	want := directConvRef(x, spec, wt, bias)
	got := New(want.Shape...)
	convInto(x, got, spec, wt, bias, false, 0)
	requireSameBits(t, "signed zeros", got.Data, want.Data)
	signs := map[uint32]bool{}
	for _, v := range want.Data {
		signs[math.Float32bits(v)] = true
	}
	if !signs[0] || !signs[1<<31] || !signs[0x7fc00001] || !signs[0x7fc00002] {
		t.Fatal("signed-zero case lost its +0, -0 or NaN outputs")
	}
}

// TestConvGemmActEpilogue checks the fused leaky-ReLU epilogue equals
// activation applied after the direct convolution.
func TestConvGemmActEpilogue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, spec, wt, bias := randomConv(rng, 2, 4, 10, 9, 6, 3, 2, 1)
	for k, in := range append([]*Tensor{x}, repeatInputs(rng, 2, 4, 10, 9)...) {
		want := directConvRef(in, spec, wt, bias)
		const slope = 0.1
		for i, v := range want.Data {
			if v < 0 {
				want.Data[i] = slope * v
			}
		}
		got := New(want.Shape...)
		convInto(in, got, spec, wt, bias, true, slope)
		requireSameBits(t, fmt.Sprintf("input %d with epilogue", k), got.Data, want.Data)
	}
}

// naivePanel is the whole-map im2col panel [kdim x OH*OW] gathered tap by
// tap, the oracle for im2col.
func naivePanel[T colScalar](src []T, C, H, W, kk, stride, pad, OH, OW int) []T {
	cols := OH * OW
	panel := make([]T, C*kk*kk*cols)
	for r := range C * kk * kk {
		ic, kh, kw := r/(kk*kk), r/kk%kk, r%kk
		for j := 0; j < cols; j++ {
			ih := (j/OW)*stride - pad + kh
			iw := (j%OW)*stride - pad + kw
			if ih >= 0 && ih < H && iw >= 0 && iw < W {
				panel[r*cols+j] = src[(ic*H+ih)*W+iw]
			}
		}
	}
	return panel
}

// TestIm2colPanelBlocks pins the block-wise gather against naivePanel, the
// per-tap oracle, on float32 and int8 elements, at strides 1-3: windows
// wholly in padding, padding at least the kernel size, inputs smaller than
// the kernel, 1x1 at strides 2 and 3 and 2x2 at stride 3 (K < S, so only
// the row phases some tap reads are built), 2x2 at stride 2, 5x5 at
// stride 2 with pad 2, stride 1 with and without padding, and blocks that
// start and end mid-row (1, 5, OW-1 and OW+3 columns wide), cover exactly
// one output row (OW), or take the whole map. Then, at strides 2 and 3,
// kernels 2 and 3 and pads 0-2, input widths on both sides of 16, 32 and 64,
// odd and even: at stride 2 the columns two planes share are de-interleaved
// in steps of eight pairs on amd64 (split2), so these put that run's length
// on, just under and just over a multiple of eight, with edge columns on
// either side. dst and the phase buffer arrive poisoned with a value no input
// holds, so every panel element must be written and no phase element read
// before it is.
func TestIm2colPanelBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := []convShape{
		{1, 3, 7, 5, 0, 3, 2, 1},
		{1, 3, 12, 10, 0, 3, 2, 1},
		{1, 4, 9, 11, 0, 3, 1, 0},
		{1, 3, 4, 9, 0, 3, 1, 1},
		{1, 2, 6, 6, 0, 3, 1, 3}, // windows wholly in padding
		{1, 2, 5, 4, 0, 2, 2, 3}, // pad > K
		{1, 5, 7, 7, 0, 1, 2, 0}, // 1x1 at stride 2 still gathers
		{1, 2, 8, 7, 0, 1, 3, 0},
		{1, 3, 8, 9, 0, 2, 2, 0},
		{1, 3, 8, 9, 0, 2, 3, 1},
		{1, 2, 9, 8, 0, 5, 2, 2},
		{1, 3, 9, 7, 0, 3, 3, 1},
		{1, 2, 1, 1, 0, 3, 2, 1}, // input smaller than K
		{1, 2, 2, 3, 0, 4, 3, 2},
		{1, 2, 1, 1, 0, 5, 1, 2},
		{1, 2, 3, 2, 0, 4, 1, 2},
		{1, 24, 20, 12, 0, 3, 1, 1}, // B3b
		{1, 32, 10, 6, 0, 3, 2, 1},  // B5
	}
	for _, stride := range []int{2, 3} {
		for _, kk := range []int{2, 3} {
			for pad := range 3 {
				for _, w := range []int{15, 16, 17, 18, 19, 31, 32, 33, 34, 35, 63, 64, 65, 66, 67} {
					shapes = append(shapes, convShape{1, 2, 5, w, 0, kk, stride, pad})
				}
			}
		}
	}
	for _, s := range shapes {
		x, _, _, _ := randomConv(rng, 1, s.c, s.h, s.w, 1, s.kk, s.stride, s.pad)
		q := make([]int8, len(x.Data))
		for i := range q {
			q[i] = int8(rng.Intn(255) - 127)
		}
		checkIm2col(t, s, x.Data, -99)
		checkIm2col(t, s, q, -128)
	}
}

// checkIm2col runs im2col over src at shape s, block by block, with dst
// and the phase buffer poisoned, and compares every element's bits to
// naivePanel's.
func checkIm2col[T colScalar](t *testing.T, s convShape, src []T, poison T) {
	t.Helper()
	OH := (s.h+2*s.pad-s.kk)/s.stride + 1
	OW := (s.w+2*s.pad-s.kk)/s.stride + 1
	cols, kdim := OH*OW, s.c*s.kk*s.kk
	want := naivePanel(src, s.c, s.h, s.w, s.kk, s.stride, s.pad, OH, OW)
	for _, blk := range []int{1, 5, max(OW-1, 1), OW, OW + 3, cols} {
		for j0 := 0; j0 < cols; j0 += blk {
			j1 := min(j0+blk, cols)
			nc := j1 - j0
			_, _, n := phaseShape(s.c, s.kk, s.stride, OW, j0, j1)
			dst, phase := make([]T, kdim*nc), make([]T, n+7)
			for i := range dst {
				dst[i] = poison
			}
			for i := range phase {
				phase[i] = poison
			}
			im2col(src, s.c, s.h, s.w, s.kk, s.stride, s.pad, OW, j0, j1, phase, dst)
			for r := range kdim {
				for j := j0; j < j1; j++ {
					if got, w := dst[r*nc+j-j0], want[r*cols+j]; math.Float32bits(float32(got)) != math.Float32bits(float32(w)) {
						t.Fatalf("%T shape %+v block %d [%d,%d): panel[%d][%d] = %v, want %v", got, s, blk, j0, j1, r, j, got, w)
					}
				}
			}
		}
	}
}

// TestSplit2MatchesScalar pins the SIMD de-interleave to the scalar loop on
// both element widths, for every run length from one step of eight pairs to
// past eight steps, with the source read at every alignment: even and odd
// arrive poisoned with a guard element either side, and those guards must
// survive.
func TestSplit2MatchesScalar(t *testing.T) {
	if !SIMD {
		t.Skip("no SIMD de-interleave on this CPU")
	}
	rng := rand.New(rand.NewSource(5))
	f := make([]float32, 200)
	for i := range f {
		f[i] = math.Float32frombits(rng.Uint32()) // NaN payloads and all
	}
	q := make([]int8, 200)
	for i := range q {
		q[i] = int8(rng.Intn(256) - 128)
	}
	for n := 8; n <= 70; n++ {
		for start := range 3 {
			checkSplit2(t, n, f[start:start+2*n], math.Float32frombits(0x7fa5a5a5))
			checkSplit2(t, n, q[start:start+2*n], -128)
		}
	}
}

// checkSplit2 de-interleaves src's n pairs into poisoned buffers and checks
// every element and both guards against the scalar loop.
func checkSplit2[T colScalar](t *testing.T, n int, src []T, poison T) {
	t.Helper()
	even, odd := make([]T, n+2), make([]T, n+2)
	for i := range even {
		even[i], odd[i] = poison, poison
	}
	split2(even[1:n+1], odd[1:n+1], src)
	for i := range n + 2 {
		we, wo := poison, poison
		if i >= 1 && i <= n {
			we, wo = src[2*(i-1)], src[2*(i-1)+1]
		}
		if math.Float32bits(float32(even[i])) != math.Float32bits(float32(we)) || math.Float32bits(float32(odd[i])) != math.Float32bits(float32(wo)) {
			t.Fatalf("%T n=%d: element %d is (%v, %v), want (%v, %v)", src, n, i, even[i], odd[i], we, wo)
		}
	}
}

// TestFusedConvBNActMatchesUnfused checks the folded one-pass block against
// running conv, batch norm, and leaky-ReLU separately. The last two shapes
// are tiny (under 4 096 MACs), where per-task overheads would show: one on
// the 1x1 no-im2col path (the AGO head grid) and one through im2col.
func TestFusedConvBNActMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []convShape{
		{2, 5, 12, 10, 8, 3, 2, 1},
		{1, 32, 5, 3, 5, 1, 1, 0}, // 2 400 MACs
		{1, 4, 5, 5, 3, 3, 1, 1},  // 2 700 MACs
	} {
		conv := NewConv2D(rng, s.c, s.outC, s.kk, s.stride, s.pad)
		for i := range conv.W.Data {
			conv.W.Data[i] = rng.Float32()*2 - 1
		}
		for i := range conv.B.Data {
			conv.B.Data[i] = rng.Float32() - 0.5
		}
		bn := NewBatchNorm2D(s.outC)
		for oc := 0; oc < s.outC; oc++ {
			bn.Gamma.Data[oc] = 0.5 + rng.Float32()
			bn.Beta.Data[oc] = rng.Float32() - 0.5
			bn.RunMean[oc] = rng.Float32() - 0.5
			bn.RunVar[oc] = 0.1 + rng.Float32()
		}
		act := NewLeakyReLU()
		x := New(s.n, s.c, s.h, s.w)
		for i := range x.Data {
			x.Data[i] = rng.Float32()*2 - 1
		}
		want := act.Forward(bn.Forward(conv.Forward(x, false), false), false)
		fused := FuseConvBNAct(conv, bn, act)
		got := fused.ForwardPooled(x, NewPool())
		if !got.SameShape(want) {
			t.Fatalf("shape %+v: fused output %v, unfused %v", s, got.Shape, want.Shape)
		}
		for i := range want.Data {
			d := got.Data[i] - want.Data[i]
			if d < -1e-4 || d > 1e-4 {
				t.Fatalf("shape %+v: element %d: fused %v unfused %v", s, i, got.Data[i], want.Data[i])
			}
		}
		// The fused block is the fold plus the GEMM epilogue, so against the
		// oracle run on the folded weights it is exact, not merely close.
		spec := ConvGeom{s.c, s.outC, s.kk, s.stride, s.pad}
		exact := directConvRef(x, spec, fused.W, fused.B)
		for i, v := range exact.Data {
			if v < 0 {
				v = fused.Slope * v
			}
			if got.Data[i] != v {
				t.Fatalf("shape %+v: element %d: fused %v, oracle on folded weights %v", s, i, got.Data[i], v)
			}
		}
	}
}

// TestFusedConvBNActCancel checks a closed done channel stops the fused
// forward early without corrupting later runs.
func TestFusedConvBNActCancel(t *testing.T) {
	conv := NewConv2D(rand.New(rand.NewSource(1)), 3, 8, 3, 1, 1)
	fused := FuseConvBNAct(conv, NewBatchNorm2D(8), NewLeakyReLU())
	p := NewPool()
	x := New(1, 3, 16, 16)
	done := make(chan struct{})
	close(done)
	y := fused.ForwardCancel(x, p, done)
	p.Put(y)
	// A subsequent uncancelled run must still be complete and correct.
	got := fused.ForwardCancel(x, p, nil)
	want := fused.ForwardPooled(x, NewPool())
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("post-cancel forward differs at %d", i)
		}
	}
}

// TestConvGemmPooledAllocs pins the steady-state allocation count of Conv
// at zero, through a real kernel: panels recycle through their scratch, the
// output through the pool. Serial path only — the parallel branch builds a
// closure by design.
func TestConvGemmPooledAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, spec, wt, bias := randomConv(rng, 1, 8, 20, 20, 8, 3, 1, 1)
	requireConvAllocsFree(t, "pooled GEMM conv", &FusedConvBNAct{ConvGeom: spec, W: wt, B: bias, Slope: 0.1}, x)
}

// TestConvGemmPooledAllocsFlat is TestConvGemmPooledAllocs on a flat field
// at the 3x5 AGO grid, where a block has 15 columns, under one 16-wide SIMD
// tile: gemmTiles copies it to a padded panel, and that copy and its tile
// recycle through their scratch too. Both shapes land on that grid: the AGO
// head (1x1, the panel is the input) and B5 (3x3 at stride 2, through
// im2col).
func TestConvGemmPooledAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range []convShape{
		{1, 32, 5, 3, 5, 1, 1, 0},
		{1, 32, 10, 6, 32, 3, 2, 1},
	} {
		_, spec, wt, bias := randomConv(rng, s.n, s.c, s.h, s.w, s.outC, s.kk, s.stride, s.pad)
		f := &FusedConvBNAct{ConvGeom: spec, W: wt, B: bias, Slope: 0.1}
		requireConvAllocsFree(t, fmt.Sprintf("pooled GEMM conv %+v on a flat field", s), f, repeatInputs(rng, s.n, s.c, s.h, s.w)[0])
	}
}

// requireConvAllocsFree fails unless the pooled forward of f over x
// allocates nothing in steady state on one processor.
func requireConvAllocsFree(t *testing.T, what string, f *FusedConvBNAct, x *Tensor) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool()
	p.Put(f.ForwardCancel(x, p, nil)) // warm the pool buckets
	if avg := testing.AllocsPerRun(20, func() { p.Put(f.ForwardCancel(x, p, nil)) }); avg != 0 {
		t.Fatalf("%s allocates %v per op, want 0", what, avg)
	}
}

// gemmOperand draws n values in [-1, 1), about one in twelve replaced by
// one of specials.
func gemmOperand(rng *rand.Rand, n int, specials []float32) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
		if rng.Intn(12) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// TestGemmTilesMatchesGemmBlock pins the SIMD float kernel to gemmBlock bit
// for bit where gemmTiles' tiling can go wrong: M from 1 to 9 (every row-band
// tail, M%4 = 0-3); every block width under a tile (the padded copy), one
// tile, and whole and shifted tiles up to 48; K from 0 (bias alone) to 216,
// the deepest production reduction; panel and output rows longer than the
// block (ldb > nc, as on the 1x1 path, and ldc > nc, as in every conv) —
// over operands seeded with NaN, +-Inf, -0, denormals and values whose
// products overflow, at slope 1 (Conv2D) and at the backbone's leaky slope
// 0.1, where gemmBlock must also equal the plain sums put through the
// scalar leaky loop the fused block used to run. c arrives poisoned, as
// pooled tiles do, and is compared whole, so a store past the block's
// columns fails too; a, b and c are cut to exactly the lengths the kernels
// may touch. One NaN payload is used, x86's default NaN, which Inf*0 and
// Inf-Inf also produce: where two payloads meet, an add returns its first
// operand's, and gemmBlock's own tiles do not agree on which operand that
// is.
func TestGemmTilesMatchesGemmBlock(t *testing.T) {
	if !SIMD {
		t.Skip("no SIMD float kernel on this CPU")
	}
	nan, inf := math.Float32frombits(0xffc00000), float32(math.Inf(1))
	specials := []float32{nan, inf, -inf, float32(math.Copysign(0, -1)), 0,
		math.Float32frombits(1), -math.Float32frombits(0x007fffff), math.SmallestNonzeroFloat32 * 3, 3e38, -2e38}
	rng := rand.New(rand.NewSource(31))
	ncs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33, 48}
	poisoned := func(n int) []float32 {
		c := make([]float32, n)
		for i := range c {
			c[i] = math.Float32frombits(0x7fa5a5a5) // a signalling NaN no kernel writes
		}
		return c
	}
	for _, slope := range []float32{1, 0.1} {
		seen := map[string]bool{} // the special classes that reached an output
		for M := 1; M <= 9; M++ {
			for _, nc := range ncs {
				for _, K := range []int{0, 1, 2, 9, 144, 216} {
					lda, ldb, ldc := K+rng.Intn(3), nc+rng.Intn(3)*7, nc+rng.Intn(3)*5
					a := gemmOperand(rng, max((M-1)*lda+K, 0), specials)
					bias := gemmOperand(rng, M, specials)
					b := gemmOperand(rng, max((K-1)*ldb+nc, 0), specials)
					what := fmt.Sprintf("slope=%v M=%d K=%d nc=%d lda=%d ldb=%d ldc=%d", slope, M, K, nc, lda, ldb, ldc)
					want, got, sums := poisoned((M-1)*ldc+nc), poisoned((M-1)*ldc+nc), poisoned((M-1)*ldc+nc)
					gemmBlock(a, lda, bias, b, ldb, want, ldc, M, K, nc, slope)
					gemmTiles(a, lda, bias, b, ldb, got, ldc, M, K, nc, slope)
					requireSameBits(t, what, got, want)
					gemmBlock(a, lda, bias, b, ldb, sums, ldc, M, K, nc, 1)
					for m := range M {
						row := sums[m*ldc : m*ldc+nc]
						for i, v := range row {
							if v < 0 {
								row[i] = slope * v
							}
						}
					}
					requireSameBits(t, what+" against the scalar leaky loop", want, sums)
					for _, v := range want {
						switch bits := math.Float32bits(v); {
						case bits == 0xffc00000:
							seen["NaN"] = true
						case math.IsInf(float64(v), 1):
							seen["+Inf"] = true
						case math.IsInf(float64(v), -1):
							seen["-Inf"] = true
						case bits == 1<<31:
							seen["-0"] = true
						case v != 0 && math.Abs(float64(v)) < 0x1p-126:
							seen["denormal"] = true
						}
					}
				}
			}
		}
		if len(seen) != 5 {
			t.Fatalf("slope %v: outputs covered only %v of NaN, +Inf, -Inf, -0 and denormal", slope, seen)
		}
	}
}

func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	// B2-like layer: 16 -> 24 channels over an 40x24 grid.
	x, spec, wt, bias := randomConv(rng, 1, 16, 40, 24, 24, 3, 2, 1)
	f := &FusedConvBNAct{ConvGeom: spec, W: wt, B: bias, Slope: 0.1}
	p := NewPool()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Put(f.ForwardCancel(x, p, nil))
	}
}

// BenchmarkConvKernels is the evidence that one float kernel is enough: the
// direct-loop oracle against Conv on every production shape, at N=1
// (serving) and N=8 (audit batches). Rerun it before giving any shape a
// kernel of its own. The inputs are random; BenchmarkConvScreens
// (internal/yolite) runs the layers on screens. The oracle runs its planes
// serially; Conv fans out on its own when the flop count justifies it, so
// run with -cpu 1 to compare kernel to kernel.
func BenchmarkConvKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, ps := range productionConvShapes {
		for _, n := range []int{1, 8} {
			s := ps.convShape
			x, spec, wt, bias := randomConv(rng, n, s.c, s.h, s.w, s.outC, s.kk, s.stride, s.pad)
			y := directConvRef(x, spec, wt, bias)
			name := fmt.Sprintf("%s/n%d", ps.name, n)
			b.Run(name+"/direct", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					directConvInto(x, y, spec, wt, bias)
				}
			})
			b.Run(name+"/gemm", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					convInto(x, y, spec, wt, bias, false, 0)
				}
			})
		}
	}
}

// BenchmarkConvIm2col times the gather alone, per backbone layer (B1-B5
// and B3b) and element type: one item's input cut into ColBlock's column
// blocks, each block's panel gathered through its phase planes, as
// convTask does.
func BenchmarkConvIm2col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, ps := range productionConvShapes {
		if !strings.HasPrefix(ps.name, "yolite_b") {
			continue
		}
		x, _, _, _ := randomConv(rng, 1, ps.c, ps.h, ps.w, 1, ps.kk, ps.stride, ps.pad)
		q := make([]int8, len(x.Data))
		for i := range q {
			q[i] = int8(rng.Intn(255) - 127)
		}
		b.Run(ps.name+"/f32", func(b *testing.B) { benchIm2col(b, ps.convShape, x.Data) })
		b.Run(ps.name+"/i8", func(b *testing.B) { benchIm2col(b, ps.convShape, q) })
	}
}

// benchIm2col gathers every column block of src at shape s per op, into
// one phase buffer and one panel sized for the largest block.
func benchIm2col[T colScalar](b *testing.B, s convShape, src []T) {
	OH := (s.h+2*s.pad-s.kk)/s.stride + 1
	OW := (s.w+2*s.pad-s.kk)/s.stride + 1
	cols, kdim := OH*OW, s.c*s.kk*s.kk
	blk, n := ColBlock(kdim, cols), 0
	for j0 := 0; j0 < cols; j0 += blk {
		_, _, pn := phaseShape(s.c, s.kk, s.stride, OW, j0, min(j0+blk, cols))
		n = max(n, pn)
	}
	phase, dst := make([]T, n), make([]T, kdim*blk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j0 := 0; j0 < cols; j0 += blk {
			j1 := min(j0+blk, cols)
			im2col(src, s.c, s.h, s.w, s.kk, s.stride, s.pad, OW, j0, j1, phase, dst)
		}
	}
}
