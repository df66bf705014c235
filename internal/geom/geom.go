// Package geom provides the integer pixel geometry used throughout the
// reproduction: points, rectangles, intersection-over-union, and the
// box utilities shared by the renderer, the view system and the detectors.
package geom

import "fmt"

// Pt is a point in screen pixel coordinates. The origin is the top-left of
// the screen; Y grows downward, matching Android.
type Pt struct {
	X, Y int
}

// Add returns p translated by q.
func (p Pt) Add(q Pt) Pt { return Pt{p.X + q.X, p.Y + q.Y} }

// Sub returns p translated by -q.
func (p Pt) Sub(q Pt) Pt { return Pt{p.X - q.X, p.Y - q.Y} }

// Rect is an axis-aligned rectangle: the half-open region
// [X, X+W) x [Y, Y+H). A Rect with W <= 0 or H <= 0 is empty.
type Rect struct {
	X, Y, W, H int
}

// RectFromEdges builds a Rect from two corner points, normalising so that
// width and height are non-negative.
func RectFromEdges(x0, y0, x1, y1 int) Rect {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// String formats the rectangle as "(x,y)+wxh".
func (r Rect) String() string { return fmt.Sprintf("(%d,%d)+%dx%d", r.X, r.Y, r.W, r.H) }

// Empty reports whether the rectangle encloses no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Area returns the number of pixels in r, 0 for empty rectangles.
func (r Rect) Area() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// MaxX returns the exclusive right edge.
func (r Rect) MaxX() int { return r.X + r.W }

// MaxY returns the exclusive bottom edge.
func (r Rect) MaxY() int { return r.Y + r.H }

// Center returns the midpoint of r (rounded down).
func (r Rect) Center() Pt { return Pt{r.X + r.W/2, r.Y + r.H/2} }

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Pt) bool {
	return p.X >= r.X && p.X < r.MaxX() && p.Y >= r.Y && p.Y < r.MaxY()
}

// ContainsRect reports whether s lies entirely inside r. An empty s is
// contained in anything.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return s.X >= r.X && s.Y >= r.Y && s.MaxX() <= r.MaxX() && s.MaxY() <= r.MaxY()
}

// Translate returns r moved by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect { return Rect{r.X + dx, r.Y + dy, r.W, r.H} }

// Inset returns r shrunk by n pixels on every side (grown for negative n).
// The result may be empty.
func (r Rect) Inset(n int) Rect { return Rect{r.X + n, r.Y + n, r.W - 2*n, r.H - 2*n} }

// Intersect returns the overlap of r and s. The result is the zero Rect when
// they do not overlap.
func (r Rect) Intersect(s Rect) Rect {
	x0 := max(r.X, s.X)
	y0 := max(r.Y, s.Y)
	x1 := min(r.MaxX(), s.MaxX())
	y1 := min(r.MaxY(), s.MaxY())
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// IoU returns the intersection-over-union of r and s in [0, 1]. Two empty
// rectangles have IoU 0.
func (r Rect) IoU(s Rect) float64 {
	inter := r.Intersect(s).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + s.Area() - inter
	return float64(inter) / float64(union)
}

// Clamp returns r clipped to bounds.
func (r Rect) Clamp(bounds Rect) Rect { return r.Intersect(bounds) }

// BoxF is a rectangle with float64 coordinates, used by the detectors where
// sub-pixel box regression is meaningful. X, Y is the top-left corner.
type BoxF struct {
	X, Y, W, H float64
}

// BoxFromRect converts an integer rectangle to a float box.
func BoxFromRect(r Rect) BoxF {
	return BoxF{float64(r.X), float64(r.Y), float64(r.W), float64(r.H)}
}

// Rect converts the box back to integer pixels, rounding to nearest.
func (b BoxF) Rect() Rect {
	return Rect{roundi(b.X), roundi(b.Y), roundi(b.W), roundi(b.H)}
}

// CenterX returns the horizontal midpoint. The conversion keeps the half
// its own rounding step: arm64 would otherwise fuse it into the add
// (FMADDD), as it would the product in IoU.
func (b BoxF) CenterX() float64 { return b.X + float64(b.W/2) }

// CenterY returns the vertical midpoint.
func (b BoxF) CenterY() float64 { return b.Y + float64(b.H/2) }

// Area returns the (non-negative) area of the box.
func (b BoxF) Area() float64 {
	if b.W <= 0 || b.H <= 0 {
		return 0
	}
	return b.W * b.H
}

// IoU returns intersection-over-union of two float boxes.
func (b BoxF) IoU(o BoxF) float64 {
	x0 := maxf(b.X, o.X)
	y0 := maxf(b.Y, o.Y)
	x1 := minf(b.X+b.W, o.X+o.W)
	y1 := minf(b.Y+b.H, o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	inter := float64((x1 - x0) * (y1 - y0))
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Scale returns the box with both corners and size multiplied by (sx, sy).
// It maps boxes between the model input resolution and screen resolution.
func (b BoxF) Scale(sx, sy float64) BoxF {
	return BoxF{b.X * sx, b.Y * sy, b.W * sx, b.H * sy}
}

func roundi(f float64) int {
	if f >= 0 {
		return int(f + 0.5)
	}
	return int(f - 0.5)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
