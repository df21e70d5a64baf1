package refs

import "testing"

// allocSink keeps harness results live so the measured calls cannot be
// eliminated.
var allocSink int

// testAllocs warms f up once and then fails if f allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}

// TestNoAllocHarness is allocbound's dynamic cross-check: Visit walks both
// an inlined and a table-backed entry, and Normalize sorts and collapses a
// list in place, under testing.AllocsPerRun. The
// //act:alloc-harness marker is what `actvet` matches against the
// annotated function.
func TestNoAllocHarness(t *testing.T) {
	tbl := NewTable()
	list := make([]Ref, 6)
	for i := range list {
		list[i] = MakeRef(uint32(i), i%2 == 0)
	}
	stored := tbl.Encode(list)     // table-backed entry
	inline := tbl.Encode(list[:1]) // inlined entry

	//act:alloc-harness Table.Visit
	testAllocs(t, "Table.Visit", func() {
		n := 0
		tbl.Visit(stored, func(Ref) { n++ })
		tbl.Visit(inline, func(Ref) { n++ })
		allocSink += n
	})

	unsorted := []Ref{MakeRef(9, false), MakeRef(2, true), MakeRef(9, true), MakeRef(4, false), MakeRef(2, true)}
	buf := make([]Ref, len(unsorted))
	//act:alloc-harness Normalize
	testAllocs(t, "Normalize", func() {
		copy(buf, unsorted)
		allocSink += len(Normalize(buf))
	})
}
