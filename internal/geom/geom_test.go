package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewRectNormalizesNegativeSizes(t *testing.T) {
	r := NewRect(5, 5, -2, -3)
	if r.X != 3 || r.Y != 2 || r.W != 2 || r.H != 3 {
		t.Fatalf("got %v, want [3,2 2x3]", r)
	}
}

func TestRectArea(t *testing.T) {
	cases := []struct {
		r    Rect
		want float64
	}{
		{Rect{0, 0, 2, 3}, 6},
		{Rect{1, 1, 0, 5}, 0},
		{Rect{-1, -1, 2, 2}, 4},
	}
	for _, c := range cases {
		if got := c.r.Area(); !almostEq(got, c.want) {
			t.Errorf("Area(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 2, 1, 1}
	if !a.Intersect(b).Empty() {
		t.Errorf("disjoint rects should have empty intersection")
	}
	if a.Overlaps(b) {
		t.Errorf("disjoint rects should not overlap")
	}
}

func TestIntersectTouchingEdgesIsEmpty(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{1, 0, 1, 1} // shares the x=1 edge
	if a.Overlaps(b) {
		t.Errorf("edge-touching rects must not count as overlapping")
	}
}

func TestIntersectPartial(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{1, 1, 2, 2}
	got := a.Intersect(b)
	if !almostEq(got.X, 1) || !almostEq(got.Y, 1) || !almostEq(got.W, 1) || !almostEq(got.H, 1) {
		t.Errorf("Intersect = %v, want [1,1 1x1]", got)
	}
	if !almostEq(a.OverlapArea(b), 1) {
		t.Errorf("OverlapArea = %v, want 1", a.OverlapArea(b))
	}
}

func TestContains(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.Contains(Rect{1, 1, 2, 2}) {
		t.Errorf("outer should contain inner")
	}
	if !outer.Contains(outer) {
		t.Errorf("a rect should contain itself")
	}
	if outer.Contains(Rect{9, 9, 2, 2}) {
		t.Errorf("partially outside rect must not be contained")
	}
}

func TestUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 3, 1, 1}
	u := a.Union(b)
	if !almostEq(u.W, 3) || !almostEq(u.H, 4) {
		t.Errorf("Union = %v, want 3x4 box", u)
	}
	if got := a.Union(Rect{}); got != a {
		t.Errorf("union with empty should be identity, got %v", got)
	}
}

func TestAnyOverlap(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {2, 0, 1, 1}, {2.5, 0.5, 1, 1}}
	i, j, ov := AnyOverlap(rects)
	if !ov || i != 1 || j != 2 {
		t.Errorf("AnyOverlap = (%d,%d,%v), want (1,2,true)", i, j, ov)
	}
	if _, _, ov := AnyOverlap(rects[:2]); ov {
		t.Errorf("disjoint set flagged as overlapping")
	}
}

// Property: intersection is commutative and its area never exceeds either
// operand's area.
func TestIntersectionProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := NewRect(clamp(ax), clamp(ay), clampSize(aw), clampSize(ah))
		b := NewRect(clamp(bx), clamp(by), clampSize(bw), clampSize(bh))
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if !almostEq(ab.Area(), ba.Area()) {
			return false
		}
		return ab.Area() <= a.Area()+1e-9 && ab.Area() <= b.Area()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: union bounding box contains both operands.
func TestUnionContainsOperands(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := NewRect(clamp(ax), clamp(ay), clampSize(aw), clampSize(ah))
		b := NewRect(clamp(bx), clamp(by), clampSize(bw), clampSize(bh))
		u := a.Union(b)
		if a.Empty() || b.Empty() {
			return true
		}
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

func clampSize(v float64) float64 {
	return math.Abs(clamp(v))
}
