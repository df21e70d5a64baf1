package geom

import (
	"math"
	"testing"
)

// The rect kernels use the builtin min and max; these references spell out
// the math.Min and math.Max forms they replaced, with one difference:
// refMin and refMax let a NaN operand beat an infinity, as the builtins do.
// math.Min(NaN, -Inf) is -Inf and math.Max(NaN, +Inf) is +Inf; the builtins
// give NaN (TestRectKernelsNaNBeatsInfinity pins that case).

func refMin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Min(a, b)
}

func refMax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Max(a, b)
}

func refAddPoint(r Rect, p Point) Rect {
	return Rect{
		Lo: Point{refMin(r.Lo.X, p.X), refMin(r.Lo.Y, p.Y)},
		Hi: Point{refMax(r.Hi.X, p.X), refMax(r.Hi.Y, p.Y)},
	}
}

func refUnion(r, o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		Lo: Point{refMin(r.Lo.X, o.Lo.X), refMin(r.Lo.Y, o.Lo.Y)},
		Hi: Point{refMax(r.Hi.X, o.Hi.X), refMax(r.Hi.Y, o.Hi.Y)},
	}
}

func refIntersection(r, o Rect) Rect {
	out := Rect{
		Lo: Point{refMax(r.Lo.X, o.Lo.X), refMax(r.Lo.Y, o.Lo.Y)},
		Hi: Point{refMin(r.Hi.X, o.Hi.X), refMin(r.Hi.Y, o.Hi.Y)},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// sameFloat reports whether a and b are the same value bit for bit, except
// that any two NaNs match: neither the builtins nor math.Min and math.Max
// promise a NaN's payload.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameRect(a, b Rect) bool {
	return sameFloat(a.Lo.X, b.Lo.X) && sameFloat(a.Lo.Y, b.Lo.Y) &&
		sameFloat(a.Hi.X, b.Hi.X) && sameFloat(a.Hi.Y, b.Hi.Y)
}

// TestRectKernelsMatchMathMinMax pins AddPoint, Union and Intersection bit
// for bit to their math.Min and math.Max forms (with NaN beating infinity,
// see refMin) on every pairing of the special values (NaN, both zeros,
// both infinities) with each other and with ordinary values, in every
// coordinate slot, and on EmptyRect operands. A sign of zero that flips, or
// a NaN or infinity handled differently, fails here.
func TestRectKernelsMatchMathMinMax(t *testing.T) {
	vals := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 2.25}
	var rects []Rect
	for _, a := range vals {
		for _, b := range vals {
			// Each pair appears in both the X and the Y slot, as a proper
			// rect, as an inverted one and as a point.
			rects = append(rects,
				Rect{Point{a, -1}, Point{b, 1}},
				Rect{Point{-1, a}, Point{1, b}},
				Rect{Point{a, b}, Point{b, a}},
				Rect{Point{a, a}, Point{a, a}})
		}
	}
	rects = append(rects, EmptyRect(), Rect{Point{0, 0}, Point{1, 1}}, Rect{Point{math.Copysign(0, -1), 0}, Point{0, math.Copysign(0, -1)}})

	checked := 0
	for _, r := range rects {
		for _, o := range rects {
			if got, want := r.Union(o), refUnion(r, o); !sameRect(got, want) {
				t.Fatalf("%#v.Union(%#v) = %#v, math form %#v", r, o, got, want)
			}
			if got, want := r.Intersection(o), refIntersection(r, o); !sameRect(got, want) {
				t.Fatalf("%#v.Intersection(%#v) = %#v, math form %#v", r, o, got, want)
			}
			checked++
		}
		for _, x := range vals {
			for _, y := range vals {
				p := Point{x, y}
				if got, want := r.AddPoint(p), refAddPoint(r, p); !sameRect(got, want) {
					t.Fatalf("%#v.AddPoint(%#v) = %#v, math form %#v", r, p, got, want)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no operand pairs checked")
	}
}

// TestRectKernelsNaNBeatsInfinity pins the one pairing where the kernels
// part from math.Min and math.Max: a NaN meeting the infinity the operation
// favors gives NaN, not the infinity.
func TestRectKernelsNaNBeatsInfinity(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if math.Max(nan, inf) != inf || math.Min(nan, -inf) != -inf {
		t.Fatal("math.Min and math.Max no longer let an infinity beat NaN; refMin and refMax are moot")
	}
	u := Rect{Point{-inf, 0}, Point{inf, 1}}.Union(Rect{Point{nan, 0}, Point{nan, 1}})
	if !math.IsNaN(u.Lo.X) || !math.IsNaN(u.Hi.X) {
		t.Errorf("Union of ±Inf and NaN bounds = %#v, want NaN X bounds", u)
	}
	a := Rect{Point{0, 0}, Point{inf, 1}}.AddPoint(Point{nan, 0.5})
	if !math.IsNaN(a.Lo.X) || !math.IsNaN(a.Hi.X) {
		t.Errorf("AddPoint of a NaN point to a +Inf bound = %#v, want NaN X bounds", a)
	}
	if in := EmptyRect().Intersection(Rect{Point{nan, nan}, Point{nan, nan}}); !math.IsNaN(in.Lo.X) {
		t.Errorf("EmptyRect ∩ NaN rect = %#v, want NaN bounds (math.Max(NaN, +Inf) would give EmptyRect)", in)
	}
}
