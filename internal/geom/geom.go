// Package geom provides the small set of 2D geometry primitives used by the
// floorplanner and the thermal grid: axis-aligned rectangles in millimeters
// and area-weighted rasterization of rectangles onto uniform grids.
//
// All coordinates are in millimeters with the origin at the lower-left
// corner of the enclosing layer. Rectangles are half-open in spirit: a zero
// width or height rectangle has zero area and intersects nothing.
package geom

import (
	"fmt"
	"math"
)

// Eps is the geometric tolerance (in mm) used when comparing coordinates.
// Placement granularity in the paper is 0.5 mm, so 1e-9 mm is far below any
// meaningful feature size.
const Eps = 1e-9

// Rect is an axis-aligned rectangle: [X, X+W) x [Y, Y+H), in millimeters.
type Rect struct {
	X, Y float64 // lower-left corner
	W, H float64 // width (x extent) and height (y extent)
}

// NewRect returns a rectangle with the given lower-left corner and size.
// Negative sizes are normalized so that W and H are always non-negative.
func NewRect(x, y, w, h float64) Rect {
	if w < 0 {
		x, w = x+w, -w
	}
	if h < 0 {
		y, h = y+h, -h
	}
	return Rect{X: x, Y: y, W: w, H: h}
}

// Area returns the rectangle area in mm².
func (r Rect) Area() float64 { return r.W * r.H }

// Empty reports whether the rectangle has (near-)zero area.
func (r Rect) Empty() bool { return r.W < Eps || r.H < Eps }

// MaxX returns the x coordinate of the right edge.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the y coordinate of the top edge.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// Center returns the rectangle center point.
func (r Rect) Center() (x, y float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Intersect returns the overlapping region of r and s. If the rectangles do
// not overlap the result is an empty rectangle (zero W or H).
func (r Rect) Intersect(s Rect) Rect {
	x0 := math.Max(r.X, s.X)
	y0 := math.Max(r.Y, s.Y)
	x1 := math.Min(r.MaxX(), s.MaxX())
	y1 := math.Min(r.MaxY(), s.MaxY())
	if x1-x0 < Eps || y1-y0 < Eps {
		return Rect{}
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// Overlaps reports whether r and s share positive area (touching edges do
// not count as overlap).
func (r Rect) Overlaps(s Rect) bool {
	return !r.Intersect(s).Empty()
}

// OverlapArea returns the area shared by r and s in mm².
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersect(s).Area() }

// Contains reports whether r fully contains s (with tolerance Eps).
func (r Rect) Contains(s Rect) bool {
	return s.X >= r.X-Eps && s.Y >= r.Y-Eps &&
		s.MaxX() <= r.MaxX()+Eps && s.MaxY() <= r.MaxY()+Eps
}

// ContainsPoint reports whether the point (x, y) lies inside r.
func (r Rect) ContainsPoint(x, y float64) bool {
	return x >= r.X-Eps && x <= r.MaxX()+Eps && y >= r.Y-Eps && y <= r.MaxY()+Eps
}

// Union returns the bounding box of r and s. Empty rectangles are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	x0 := math.Min(r.X, s.X)
	y0 := math.Min(r.Y, s.Y)
	x1 := math.Max(r.MaxX(), s.MaxX())
	y1 := math.Max(r.MaxY(), s.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// String formats the rectangle for diagnostics.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f %.3fx%.3f]", r.X, r.Y, r.W, r.H)
}

// AnyOverlap reports whether any pair of rectangles in the slice overlaps,
// returning the first overlapping pair's indices. It is O(n²), which is fine
// for floorplans with tens of blocks.
func AnyOverlap(rects []Rect) (i, j int, overlap bool) {
	for a := 0; a < len(rects); a++ {
		for b := a + 1; b < len(rects); b++ {
			if rects[a].Overlaps(rects[b]) {
				return a, b, true
			}
		}
	}
	return 0, 0, false
}
