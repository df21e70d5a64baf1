package refs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestMakeRefRoundTrip(t *testing.T) {
	f := func(id uint32, interior bool) bool {
		id &= MaxPolygonID
		r := MakeRef(id, interior)
		return r.PolygonID() == id && r.Interior() == interior
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakeRefPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MakeRef must panic for ids over 30 bits")
		}
	}()
	MakeRef(MaxPolygonID+1, false)
}

func TestNormalize(t *testing.T) {
	cases := []struct {
		in, want []Ref
	}{
		{nil, nil},
		{[]Ref{MakeRef(5, false)}, []Ref{MakeRef(5, false)}},
		{
			[]Ref{MakeRef(5, false), MakeRef(5, false)},
			[]Ref{MakeRef(5, false)},
		},
		{
			// True hit wins over candidate for the same polygon.
			[]Ref{MakeRef(5, false), MakeRef(5, true)},
			[]Ref{MakeRef(5, true)},
		},
		{
			[]Ref{MakeRef(5, true), MakeRef(5, false)},
			[]Ref{MakeRef(5, true)},
		},
		{
			[]Ref{MakeRef(9, false), MakeRef(2, true), MakeRef(9, true), MakeRef(2, true)},
			[]Ref{MakeRef(2, true), MakeRef(9, true)},
		},
		{
			[]Ref{MakeRef(3, false), MakeRef(1, false), MakeRef(2, false)},
			[]Ref{MakeRef(1, false), MakeRef(2, false), MakeRef(3, false)},
		},
	}
	for i, c := range cases {
		got := Normalize(append([]Ref{}, c.in...))
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("case %d: Normalize(%v) = %v, want %v", i, c.in, got, c.want)
		}
	}
}

// normalizeRef is Normalize as it was written over sort.Slice: the oracle
// the generic-sort version must match on every input.
func normalizeRef(in []Ref) []Ref {
	if len(in) <= 1 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:1]
	for _, r := range in[1:] {
		last := &out[len(out)-1]
		if r == *last {
			continue
		}
		if r.PolygonID() == last.PolygonID() {
			*last = r
			continue
		}
		out = append(out, r)
	}
	return out
}

// TestNormalizeMatchesRef checks Normalize against normalizeRef over random
// multisets drawn from a few ids, so duplicates and the same polygon as both
// candidate and interior are common.
func TestNormalizeMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := make([]Ref, rng.Intn(12))
		ids := 1 + rng.Intn(6)
		for k := range in {
			id := uint32(rng.Intn(ids))
			if rng.Intn(8) == 0 {
				id = uint32(rng.Intn(MaxPolygonID + 1))
			}
			in[k] = MakeRef(id, rng.Intn(2) == 0)
		}
		want := normalizeRef(append([]Ref(nil), in...))
		got := Normalize(append([]Ref(nil), in...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Normalize(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestEntryTagsRoundTrip(t *testing.T) {
	tbl := NewTable()

	if e := tbl.Encode(nil); !e.IsFalseHit() {
		t.Error("empty list must encode to FalseHit")
	}

	one := []Ref{MakeRef(42, true)}
	e1 := tbl.Encode(one)
	if e1.Tag() != TagOneRef || e1.Ref1() != one[0] {
		t.Errorf("one-ref entry broken: tag %d ref %v", e1.Tag(), e1.Ref1())
	}

	two := []Ref{MakeRef(1, false), MakeRef(MaxPolygonID, true)}
	e2 := tbl.Encode(two)
	if e2.Tag() != TagTwoRefs || e2.Ref1() != two[0] || e2.Ref2() != two[1] {
		t.Errorf("two-ref entry broken: %v %v", e2.Ref1(), e2.Ref2())
	}

	three := []Ref{MakeRef(7, true), MakeRef(8, false), MakeRef(9, true)}
	e3 := tbl.Encode(three)
	if e3.Tag() != TagOffset {
		t.Errorf("three refs must spill to table, got tag %d", e3.Tag())
	}
	got := tbl.AppendRefs(nil, e3)
	want := []Ref{MakeRef(7, true), MakeRef(9, true), MakeRef(8, false)} // true hits first
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
}

func TestTableDeduplication(t *testing.T) {
	tbl := NewTable()
	list := []Ref{MakeRef(1, true), MakeRef(2, false), MakeRef(3, false)}
	e1 := tbl.Encode(list)
	size1 := tbl.SizeBytes()
	e2 := tbl.Encode(append([]Ref{}, list...))
	if e1 != e2 {
		t.Error("identical lists must encode to the same entry")
	}
	if tbl.SizeBytes() != size1 {
		t.Error("duplicate encode must not grow the table")
	}
	if tbl.NumRecords() != 1 {
		t.Errorf("NumRecords = %d, want 1", tbl.NumRecords())
	}
	// A different list must get a new offset.
	other := []Ref{MakeRef(1, true), MakeRef(2, false), MakeRef(4, false)}
	e3 := tbl.Encode(other)
	if e3 == e1 {
		t.Error("different lists must not collide")
	}
	if tbl.NumRecords() != 2 {
		t.Errorf("NumRecords = %d, want 2", tbl.NumRecords())
	}
}

func TestVisitMatchesAppendRefs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := NewTable()
	for iter := 0; iter < 500; iter++ {
		n := rng.Intn(6)
		list := make([]Ref, 0, n)
		for i := 0; i < n; i++ {
			list = append(list, MakeRef(uint32(rng.Intn(1000)), rng.Intn(2) == 0))
		}
		list = Normalize(list)
		e := tbl.Encode(list)
		var visited []Ref
		tbl.Visit(e, func(r Ref) { visited = append(visited, r) })
		appended := tbl.AppendRefs(nil, e)
		if len(visited) != len(appended) {
			t.Fatalf("Visit/AppendRefs length mismatch: %d vs %d", len(visited), len(appended))
		}
		for i := range visited {
			if visited[i] != appended[i] {
				t.Fatalf("Visit/AppendRefs mismatch at %d", i)
			}
		}
		// All original refs must be present (order may differ: table
		// records group true hits first).
		seen := map[Ref]bool{}
		for _, r := range visited {
			seen[r] = true
		}
		for _, r := range list {
			if !seen[r] {
				t.Fatalf("ref %v lost in encode/decode", r)
			}
		}
	}
}

func TestEntryBitBoundaries(t *testing.T) {
	tbl := NewTable()
	// Max polygon id in both inline slots with both flags.
	a := MakeRef(MaxPolygonID, true)
	b := MakeRef(MaxPolygonID, false)
	e := tbl.Encode([]Ref{b, a})
	if e.Ref1() != b || e.Ref2() != a {
		t.Errorf("bit boundary corruption: %v %v", e.Ref1(), e.Ref2())
	}
}

func TestFalseHitProperties(t *testing.T) {
	if FalseHit.Tag() != TagPointer {
		t.Error("sentinel must carry the pointer tag")
	}
	tbl := NewTable()
	if got := tbl.AppendRefs(nil, FalseHit); len(got) != 0 {
		t.Error("sentinel must decode to no refs")
	}
	calls := 0
	tbl.Visit(FalseHit, func(Ref) { calls++ })
	if calls != 0 {
		t.Error("Visit on sentinel must not call back")
	}
}
