package quant

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/yolite"
)

// scalar is the element type of both precisions' activations.
type scalar interface{ ~float32 | ~int8 }

// trip closes done once conv number at of a walk, counted in the order the
// walk runs them, starts its first column block.
type trip struct {
	at   int
	done chan struct{}
	once sync.Once
}

// tripped is kernel k as conv number id of a walk reporting to t.
type tripped[In, Out scalar, K tensor.ConvKernel[In, Out]] struct {
	k  K
	id int
	t  *trip
}

func (k tripped[In, Out, K]) Geom() tensor.ConvGeom { return k.k.Geom() }

func (k tripped[In, Out, K]) Block(panel []In, ldb int, y []Out, ldc, u int) {
	if k.id == k.t.at {
		k.t.once.Do(func() { close(k.t.done) })
	}
	k.k.Block(panel, ldb, y, ldc, u)
}

// TestWalkAbortsAtEveryConv closes the walk's done channel inside each of its
// eight convolutions in turn (the six blocks and both heads), for both
// precisions over the detector's real topology. Every aborted walk must
// report ok == false with nil maps, and a clean walk after it must give the
// first clean walk's maps bit for bit without the Pool allocating anything:
// the abort returned every buffer, dirty, to where it came from.
func TestWalkAbortsAtEveryConv(t *testing.T) {
	m := yolite.NewModel(5)
	qm := Port(m, nil)
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(2, 3, yolite.InputH, yolite.InputW)
	for i := range x.Data {
		x.Data[i] = float32(rng.Intn(4)) / 3 // four levels, as a screen has few
	}
	var fused []*tensor.FusedConvBNAct
	for _, s := range m.Blocks() {
		fused = append(fused, tensor.FuseConvBNAct(nn.ConvBNActParts(s)))
	}
	qx := make([]int8, len(x.Data))
	quantI8(qx, x.Data, qm.backbone[0].inScale)
	var f32s tensor.Scratch[float32]
	t.Run("float32", func(t *testing.T) { checkAborts(t, fused, m.UPOHead, m.AGOHead, x.Data, &f32s) })
	t.Run("int8", func(t *testing.T) {
		checkAborts(t, qm.backbone, (*qhead)(qm.upoHead), (*qhead)(qm.agoHead), qx, &i8s)
	})
}

func checkAborts[T scalar, B tensor.ConvKernel[T, T], H tensor.ConvKernel[T, float32]](t *testing.T, blocks []B, fine, coarse H, x []T, acts *tensor.Scratch[T]) {
	p := tensor.NewPool()
	walk := func(tr *trip) (f, c *tensor.Tensor, ok bool) {
		bs := make([]tripped[T, T, B], len(blocks))
		for i, b := range blocks {
			id := i
			if i >= yolite.Trunk {
				id++ // the fine head runs before the trunk's block
			}
			bs[i] = tripped[T, T, B]{b, id, tr}
		}
		fh := tripped[T, float32, H]{fine, yolite.Trunk, tr}
		ch := tripped[T, float32, H]{coarse, len(blocks) + 1, tr}
		return tensor.Walk(bs, yolite.Trunk, fh, ch, x, len(x)/(3*yolite.InputH*yolite.InputW), yolite.InputH, yolite.InputW, acts, p, tr.done)
	}
	clean := func() (f, c []float32) {
		t.Helper()
		ft, ct, ok := walk(&trip{at: -1})
		if !ok {
			t.Fatal("a walk that was never cancelled aborted")
		}
		f, c = slices.Clone(ft.Data), slices.Clone(ct.Data)
		p.Put(ft)
		p.Put(ct)
		return f, c
	}
	wantF, wantC := clean()
	_, news := p.Stats()
	for at := 0; at <= len(blocks)+1; at++ {
		if f, c, ok := walk(&trip{at: at, done: make(chan struct{})}); ok || f != nil || c != nil {
			t.Fatalf("abort in conv %d: ok %v, maps %v %v; want false and nil", at, ok, f != nil, c != nil)
		}
		if f, c := clean(); !slices.Equal(f, wantF) || !slices.Equal(c, wantC) {
			t.Fatalf("the clean walk after an abort in conv %d differs from the first", at)
		}
	}
	if _, n := p.Stats(); n != news {
		t.Fatalf("aborts and clean walks made the pool allocate %d new maps, want 0", n-news)
	}
}
