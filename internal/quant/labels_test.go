package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/auigen"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// TestForwardI8Labels is the int8 kernel's half of the label invariant on
// structured inputs (tensor's TestLabelsMatchVectors is the float half):
// repeatQx (a flat field, a tile, a constant, all zeros), the flat field
// with an all-zero band beside the left padding, and random activations, at
// the B1 geometry, whose four column blocks an item make repeats straddle
// blocks. A layer's labels are exact whether it labels its input itself
// or is handed its producer's, and labels change no output bit.
func TestForwardI8Labels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	N, C, H, W := 2, 3, 160, 96
	q1, q2 := requantQConv(rng, C, 10, 3, 2, 1), requantQConv(rng, 10, 10, 3, 1, 1)
	banded := slices.Clone(repeatQx(rng, N, C, H, W)[0])
	for i := range banded {
		if i%W < W/3 {
			banded[i] = 0
		}
	}
	for k, qx := range append(repeatQx(rng, N, C, H, W), banded, randQx(rng, N*C*H*W)) {
		out, lab := labelledI8(t, fmt.Sprintf("input %d layer 1", k), q1, qx, N, H, W, nil)
		labelledI8(t, fmt.Sprintf("input %d layer 2", k), q2, out, N, 80, 48, lab)
	}
}

// labelledI8 runs q over qx, handed labIn (nil: it labels qx itself),
// checks the output's labels and that the output is that of a run that
// labels qx itself, and returns both.
func labelledI8(t *testing.T, what string, q *qconv, qx []int8, N, H, W int, labIn []int32) ([]int8, []int32) {
	t.Helper()
	oh, ow := q.OutSize(H, W)
	want, got, lab := make([]int8, N*q.OutC*oh*ow), make([]int8, N*q.OutC*oh*ow), make([]int32, N*oh*ow)
	tensor.Conv(q, qx, N, H, W, want, nil, nil, nil)
	tensor.Conv(q, qx, N, H, W, got, labIn, lab, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: labels changed the output", what)
	}
	per, cols := q.OutC*oh*ow, oh*ow
	for n := 0; n < N; n++ {
		checkVectorLabels(t, fmt.Sprintf("%s item %d", what, n), got[n*per:(n+1)*per], cols, lab[n*cols:(n+1)*cols])
	}
	return got, lab
}

// scalar is the element type of both precisions' activations.
type scalar interface{ ~float32 | ~int8 }

// tapBits is a tap's bits; an int8 tap's float32 value is one-to-one.
func tapBits[T scalar](v T) uint32 { return math.Float32bits(float32(v)) }

// chainLayer is one backbone conv as the labelled chain runs it: forward
// maps an [n][C][h][w] input and its labels to the output and the output's
// labels (nil when lab is not wanted).
type chainLayer[T scalar] struct {
	C, outC, k, stride, pad int
	forward                 func(x []T, n, h, w int, labIn []int32, wantLab bool) ([]T, []int32)
}

// TestChainLabels runs both precisions' backbones over generator screens
// the way tensor.Walk does, each layer handed its producer's labels (the
// first labels its own), and holds every layer to two brute-force counts. The labels it emits are exact: equal exactly for bit-
// identical channel vectors, -1 exactly for all +0. And every column block
// of the next layer, searched with those labels, finds exactly as many
// distinct windows as the block has; a repeat the merge missed would
// compute one column too many, which no golden can see.
func TestChainLabels(t *testing.T) {
	m := yolite.NewModel(1)
	if err := m.Load("../../weights/yolite.gob"); err != nil {
		t.Skip("no pretrained weights")
	}
	cfg := auigen.DatasetConfig{}
	qm := Port(m, auigen.BuildAUISamples(1, 4, cfg))
	samples := append(auigen.BuildAUISamples(3, 4, cfg), auigen.BuildNegativeSamples(4, 2, cfg)...)
	x := yolite.BatchToTensor(samples)
	N := x.Shape[0]

	var floats []chainLayer[float32]
	for _, s := range m.Blocks() {
		f := tensor.FuseConvBNAct(nn.ConvBNActParts(s))
		floats = append(floats, chainLayer[float32]{f.InC, f.OutC, f.K, f.Stride, f.Pad,
			func(x []float32, n, h, w int, labIn []int32, wantLab bool) ([]float32, []int32) {
				oh, ow := f.OutSize(h, w)
				out := make([]float32, n*f.OutC*oh*ow)
				var lab []int32
				if wantLab {
					lab = make([]int32, n*oh*ow)
				}
				tensor.Conv(f, x, n, h, w, out, labIn, lab, nil)
				return out, lab
			}})
	}
	var ints []chainLayer[int8]
	for _, q := range qm.backbone {
		ints = append(ints, chainLayer[int8]{q.InC, q.OutC, q.K, q.Stride, q.Pad,
			func(x []int8, n, h, w int, labIn []int32, wantLab bool) ([]int8, []int32) {
				oh, ow := q.OutSize(h, w)
				out := make([]int8, n*q.OutC*oh*ow)
				var lab []int32
				if wantLab {
					lab = make([]int32, n*oh*ow)
				}
				tensor.Conv(q, x, n, h, w, out, labIn, lab, nil)
				return out, lab
			}})
	}
	qx := make([]int8, len(x.Data))
	quantI8(qx, x.Data, qm.backbone[0].inScale)
	t.Run("float", func(t *testing.T) { checkChain(t, floats, x.Data, N, x.Shape[2], x.Shape[3]) })
	t.Run("int8", func(t *testing.T) { checkChain(t, ints, qx, N, x.Shape[2], x.Shape[3]) })
}

// checkChain runs layers in order over x and checks every layer's labels
// and per-block distinct-window counts (see TestChainLabels).
func checkChain[T scalar](t *testing.T, layers []chainLayer[T], x []T, N, h, w int) {
	var lab []int32
	for i, l := range layers {
		oh, ow := (h+2*l.pad-l.k)/l.stride+1, (w+2*l.pad-l.k)/l.stride+1
		cols, kdim := oh*ow, l.C*l.k*l.k
		blk := tensor.ColBlock(kdim, cols)
		got, want := 0, 0
		for n := 0; n < N; n++ {
			item := x[n*l.C*h*w : (n+1)*l.C*h*w]
			itemLab := make([]int32, h*w) // the first layer labels its input
			if lab != nil {
				itemLab = lab[n*h*w : (n+1)*h*w]
			} else {
				tensor.LabelInput(item, 1, l.C, h, w, itemLab)
			}
			for j0 := 0; j0 < cols; j0 += blk {
				j1 := min(j0+blk, cols)
				dst, rep := make([]T, kdim*(j1-j0)), make([]int32, j1-j0)
				got += tensor.DistinctPanel(item, itemLab, l.C, h, w, l.k, l.stride, l.pad, ow, j0, j1, dst, rep)
				want += distinctWindows(item, l.C, h, w, l.k, l.stride, l.pad, ow, j0, j1)
			}
		}
		if got != want {
			t.Fatalf("layer %d: %d distinct columns searched with the chain's labels, %d by brute force", i, got, want)
		}
		t.Logf("layer %d: %d distinct of %d columns", i, got, N*cols)
		x, lab = l.forward(x, N, h, w, lab, i+1 < len(layers))
		h, w = oh, ow
		for n := 0; n < N && lab != nil; n++ {
			checkVectorLabels(t, fmt.Sprintf("layer %d item %d", i, n), x[n*l.outC*h*w:(n+1)*l.outC*h*w], h*w, lab[n*h*w:(n+1)*h*w])
		}
	}
}

// distinctWindows counts the distinct receptive fields of output pixels
// [j0, j1) of one CHW item by their taps' bits, padding as +0.
func distinctWindows[T scalar](src []T, C, H, W, kk, stride, pad, OW, j0, j1 int) int {
	seen := map[string]bool{}
	for j := j0; j < j1; j++ {
		b := make([]byte, 0, 4*C*kk*kk)
		for ic := 0; ic < C; ic++ {
			for kh := 0; kh < kk; kh++ {
				for kw := 0; kw < kk; kw++ {
					var v T
					if ih, iw := j/OW*stride-pad+kh, j%OW*stride-pad+kw; ih >= 0 && ih < H && iw >= 0 && iw < W {
						v = src[(ic*H+ih)*W+iw]
					}
					b = binary.LittleEndian.AppendUint32(b, tapBits(v))
				}
			}
		}
		seen[string(b)] = true
	}
	return len(seen)
}

// checkVectorLabels fails unless lab labels the CHW item y exactly: equal
// labels exactly for bit-identical channel vectors, -1 exactly for all +0.
func checkVectorLabels[T scalar](t *testing.T, what string, y []T, hw int, lab []int32) {
	t.Helper()
	byKey, byLab := map[string]int32{}, map[int32]string{}
	for p, l := range lab {
		b, zero := []byte{}, true
		for o := p; o < len(y); o += hw {
			b, zero = binary.LittleEndian.AppendUint32(b, tapBits(y[o])), zero && tapBits(y[o]) == 0
		}
		key := string(b)
		if zero != (l == -1) {
			t.Fatalf("%s: position %d is all +0: %v, but labelled %d", what, p, zero, l)
		}
		if k, ok := byLab[l]; ok && k != key {
			t.Fatalf("%s: position %d shares label %d with a different vector", what, p, l)
		}
		if m, ok := byKey[key]; ok && m != l {
			t.Fatalf("%s: position %d is labelled %d, an identical vector %d", what, p, l, m)
		}
		byKey[key], byLab[l] = l, key
	}
}
