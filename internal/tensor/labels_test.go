package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// vectorKey is the bits of the channel vector at position p of a CHW item
// with hw positions per channel.
func vectorKey[T colScalar](src []T, hw, p int) (key string, zero bool) {
	b, zero := make([]byte, 0, 8*len(src)/hw), true
	for o := p; o < len(src); o += hw {
		v := math.Float32bits(float32(src[o]))
		b, zero = fmt.Appendf(b, "%08x", v), zero && v == 0
	}
	return string(b), zero
}

// vectorLabels labels a CHW item's positions by brute force: -1 for the
// all-+0 vector, otherwise the order of first appearance times mul, so the
// ids say nothing but equality.
func vectorLabels[T colScalar](src []T, hw int, mul int32) []int32 {
	ids, lab := map[string]int32{}, make([]int32, hw)
	for p := range lab {
		key, zero := vectorKey(src, hw, p)
		if zero {
			lab[p] = -1
			continue
		}
		id, ok := ids[key]
		if !ok {
			id = int32(len(ids)) * mul
			ids[key] = id
		}
		lab[p] = id
	}
	return lab
}

// checkLabels fails unless lab labels the CHW item y exactly: equal labels
// exactly for bit-identical channel vectors, -1 exactly for all +0.
func checkLabels[T colScalar](t *testing.T, what string, y []T, hw int, lab []int32) {
	t.Helper()
	byKey, byLab := map[string]int32{}, map[int32]string{}
	for p, l := range lab {
		key, zero := vectorKey(y, hw, p)
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

// TestLabelsMatchVectors is the label invariant on structured inputs: every
// label map, LabelInput's and each layer's, is exact, and labels change no
// output bit. The inputs are repeatInputs (flat fields, tiles, a constant,
// all zeros, ±0 and NaN payloads), the same with an all-+0 band beside the
// left padding, and random data, at N = 1, 2 and 3; the B1 geometry puts
// four column blocks in an item, so repeats straddle blocks. LabelInput is
// held to the vectorLabels oracle. The first layer labels its own input,
// the second is handed the first's labels. The weight sets are random, and
// centre-tap only, where distinct windows give identical outputs and only
// the merge finds them; the second layer's leaky-ReLU with slope 0
// collapses every negative to -0 as well.
func TestLabelsMatchVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range []convShape{
		{2, 3, 160, 96, 10, 3, 2, 1}, // yolite B1 geometry
		{2, 4, 9, 11, 5, 3, 1, 0},
		{1, 2, 6, 6, 3, 3, 1, 3}, // windows wholly in padding
		{3, 3, 12, 10, 4, 3, 2, 1},
	} {
		x, spec, wt, bias := randomConv(rng, s.n, s.c, s.h, s.w, s.outC, s.kk, s.stride, s.pad)
		centre := make([]float32, len(wt))
		for i := range centre {
			if i%(s.kk*s.kk) == s.kk*s.kk/2 {
				centre[i] = wt[i]
			}
		}
		banded := repeatInputs(rng, s.n, s.c, s.h, s.w)[0]
		for i := range banded.Data {
			if i%s.w < s.w/3 {
				banded.Data[i] = 0
			}
		}
		inputs := append(repeatInputs(rng, s.n, s.c, s.h, s.w), banded, x)
		for k, in := range inputs {
			hw := s.h * s.w
			lab := make([]int32, s.n*hw)
			LabelInput(in.Data, s.n, s.c, s.h, s.w, lab)
			for n := 0; n < s.n; n++ {
				item := in.Data[n*s.c*hw : (n+1)*s.c*hw]
				sameLabelling(t, fmt.Sprintf("shape %+v input %d item %d: LabelInput", s, k, n), lab[n*hw:(n+1)*hw], vectorLabels(item, hw, 1))
			}
			for wi, w := range [][]float32{wt, centre} {
				what := fmt.Sprintf("shape %+v input %d weights %d", s, k, wi)
				y1, lab1 := labelledConv(t, what+" layer 1", in, nil, spec, w, bias, 0.1)
				spec2 := ConvGeom{s.outC, s.outC, 3, 1, 1}
				_, _, w2, b2 := randomConv(rng, 1, s.outC, 1, 1, s.outC, 3, 1, 1)
				labelledConv(t, what+" layer 2", y1, lab1, spec2, w2, b2, 0)
			}
		}
	}
}

// sameLabelling fails unless got and want make the same classes of
// positions, -1 the same one.
func sameLabelling(t *testing.T, what string, got, want []int32) {
	t.Helper()
	fwd, back := map[int32]int32{-1: -1}, map[int32]int32{-1: -1}
	for p := range want {
		g, okG := fwd[want[p]]
		w, okW := back[got[p]]
		if okG && g != got[p] || okW && w != want[p] {
			t.Fatalf("%s: position %d labelled %d, oracle %d", what, p, got[p], want[p])
		}
		fwd[want[p]], back[got[p]] = got[p], want[p]
	}
}

// labelledConv runs Conv with the act epilogue at slope on x, handed labIn
// (nil: it labels x itself), checks the output's labels and that the output
// is that of a run that labels x itself, bit for bit, and returns both.
func labelledConv(t *testing.T, what string, x *Tensor, labIn []int32, spec ConvGeom, w, bias []float32, slope float32) (*Tensor, []int32) {
	t.Helper()
	N, H, W := x.Shape[0], x.Shape[2], x.Shape[3]
	OH, OW := spec.OutSize(H, W)
	want, got := New(N, spec.OutC, OH, OW), New(N, spec.OutC, OH, OW)
	convInto(x, want, spec, w, bias, true, slope, nil, nil)
	lab := make([]int32, N*OH*OW)
	convInto(x, got, spec, w, bias, true, slope, labIn, lab)
	requireSameBits(t, what, got.Data, want.Data)
	per, cols := spec.OutC*OH*OW, OH*OW
	for n := 0; n < N; n++ {
		checkLabels(t, fmt.Sprintf("%s item %d", what, n), got.Data[n*per:(n+1)*per], cols, lab[n*cols:(n+1)*cols])
	}
	return got, lab
}
