package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := Rect{10, 20, 30, 40}
	if r.MaxX() != 40 || r.MaxY() != 60 {
		t.Fatalf("edges: MaxX=%d MaxY=%d", r.MaxX(), r.MaxY())
	}
	if r.Area() != 1200 {
		t.Fatalf("area=%d", r.Area())
	}
	if got := r.Center(); got != (Pt{25, 40}) {
		t.Fatalf("center=%v", got)
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !(Rect{0, 0, 0, 5}).Empty() || (Rect{0, 0, 0, 5}).Area() != 0 {
		t.Fatal("zero-width rect should be empty with area 0")
	}
}

func TestRectFromEdgesNormalises(t *testing.T) {
	r := RectFromEdges(10, 30, 5, 20)
	if r != (Rect{5, 20, 5, 10}) {
		t.Fatalf("got %v", r)
	}
}

func TestContains(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		p    Pt
		want bool
	}{
		{Pt{0, 0}, true},
		{Pt{9, 9}, true},
		{Pt{10, 9}, false}, // right edge is exclusive
		{Pt{9, 10}, false},
		{Pt{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestContainsRect(t *testing.T) {
	outer := Rect{0, 0, 100, 100}
	if !outer.ContainsRect(Rect{10, 10, 20, 20}) {
		t.Fatal("inner rect should be contained")
	}
	if outer.ContainsRect(Rect{90, 90, 20, 20}) {
		t.Fatal("overhanging rect should not be contained")
	}
	if !outer.ContainsRect(Rect{}) {
		t.Fatal("empty rect should be contained in anything")
	}
}

func TestIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	if got := a.Intersect(b); got != (Rect{5, 5, 5, 5}) {
		t.Fatalf("intersect=%v", got)
	}
	if got := a.Intersect(Rect{20, 20, 5, 5}); !got.Empty() {
		t.Fatalf("disjoint intersect=%v, want empty", got)
	}
}

func TestIoUKnownValues(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if got := a.IoU(a); got != 1 {
		t.Fatalf("self IoU=%v", got)
	}
	b := Rect{0, 0, 10, 5}
	if got := a.IoU(b); got != 0.5 {
		t.Fatalf("half IoU=%v", got)
	}
	if got := a.IoU(Rect{100, 100, 5, 5}); got != 0 {
		t.Fatalf("disjoint IoU=%v", got)
	}
}

func TestInsetTranslateClamp(t *testing.T) {
	r := Rect{10, 10, 20, 20}
	if got := r.Inset(5); got != (Rect{15, 15, 10, 10}) {
		t.Fatalf("inset=%v", got)
	}
	if got := r.Inset(-5); got != (Rect{5, 5, 30, 30}) {
		t.Fatalf("outset=%v", got)
	}
	if got := r.Translate(-10, 5); got != (Rect{0, 15, 20, 20}) {
		t.Fatalf("translate=%v", got)
	}
	if got := r.Clamp(Rect{0, 0, 15, 15}); got != (Rect{10, 10, 5, 5}) {
		t.Fatalf("clamp=%v", got)
	}
}

func randRect(rng *rand.Rand) Rect {
	return Rect{rng.Intn(200) - 100, rng.Intn(200) - 100, rng.Intn(100) + 1, rng.Intn(100) + 1}
}

// Property: IoU is symmetric, bounded in [0,1], and 1 only for identical
// rectangles of equal area.
func TestPropertyIoU(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randRect(rng), randRect(rng)
		ab, ba := a.IoU(b), b.IoU(a)
		if ab != ba {
			t.Fatalf("IoU not symmetric: %v vs %v for %v,%v", ab, ba, a, b)
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("IoU out of range: %v", ab)
		}
		if ab == 1 && a != b {
			t.Fatalf("IoU=1 for distinct rects %v %v", a, b)
		}
	}
}

// Property: intersection is contained in both operands.
func TestPropertyIntersectUnionContainment(t *testing.T) {
	prop := func(ax, ay, bx, by int8, aw, ah, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(aw%50) + 1, int(ah%50) + 1}
		b := Rect{int(bx), int(by), int(bw%50) + 1, int(bh%50) + 1}
		i := a.Intersect(b)
		return i.Empty() || (a.ContainsRect(i) && b.ContainsRect(i))
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestBoxFRoundTrip(t *testing.T) {
	r := Rect{3, 4, 17, 29}
	if got := BoxFromRect(r).Rect(); got != r {
		t.Fatalf("round trip: %v -> %v", r, got)
	}
}

func TestBoxFIoUMatchesRect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng), randRect(rng)
		ri := a.IoU(b)
		bi := BoxFromRect(a).IoU(BoxFromRect(b))
		if diff := ri - bi; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("IoU mismatch int=%v float=%v for %v %v", ri, bi, a, b)
		}
	}
}

func TestBoxFScale(t *testing.T) {
	b := BoxF{10, 20, 30, 40}
	s := b.Scale(2, 0.5)
	if s != (BoxF{20, 10, 60, 20}) {
		t.Fatalf("scale=%v", s)
	}
	if s.CenterX() != 50 || s.CenterY() != 20 {
		t.Fatalf("center=(%v,%v)", s.CenterX(), s.CenterY())
	}
}

func TestPtArithmetic(t *testing.T) {
	p := Pt{3, 4}.Add(Pt{1, -2})
	if p != (Pt{4, 2}) {
		t.Fatalf("add=%v", p)
	}
	if q := p.Sub(Pt{4, 2}); q != (Pt{}) {
		t.Fatalf("sub=%v", q)
	}
}
