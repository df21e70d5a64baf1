// Package bad exercises the allocbound diagnostics.
package bad

// big is large enough that returning a pointer forces a heap allocation.
type big struct {
	data [64]int
}

// escape returns a pointer to a local: the classic escape. It also has
// no AllocsPerRun coverage.
//
//act:hotpath
func escape() *big { // want `//act:hotpath function escape has no AllocsPerRun harness`
	return &big{} // want `heap allocation in //act:hotpath function escape`
}

// sink keeps store's local alive beyond the call.
var sink *int

// store moves a local to the heap through the package sink.
//
//act:hotpath
func store() {
	v := 42 // want `heap allocation in //act:hotpath function store: v escapes to heap`
	sink = &v
}
