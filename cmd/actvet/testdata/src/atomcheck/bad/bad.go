// Package fixture exercises atomcheck: undeclared atomic fields, mixed
// plain/atomic access on a legacy word, by-value copies of atomic wrappers,
// racy load-then-store read-modify-write sequences, and a CAS loop on the
// published pointer outside the publish machinery.
package fixture

import (
	"sync"
	"sync/atomic"
)

// counter mixes declared and undeclared atomic state.
type counter struct {
	n    atomic.Int64 // want `field n has atomic type sync/atomic.Int64 but no //act:atomic annotation`
	hits atomic.Int64 //act:atomic
	raw  int64        //act:atomic legacy word, touched only through sync/atomic
	gate atomic.Bool  //act:atomic
	mu   sync.Mutex   //act:lock ctrmu
}

// copyValue copies the wrapper: the copy shares no state with the original.
func (c *counter) copyValue() int64 {
	v := c.hits // want `atomic field hits used by value`
	return v.Load()
}

// consume takes an atomic by value, for passByValue below.
func consume(b atomic.Bool) bool { return b.Load() }

// passByValue hands the atomic to a function as a copy.
func (c *counter) passByValue() bool {
	return consume(c.gate) // want `atomic field gate used by value`
}

// plainRead races the atomic writers of the legacy word.
func (c *counter) plainRead() int64 {
	return c.raw // want `field raw is //act:atomic but accessed without sync/atomic`
}

// plainWrite is the other half of the same race.
func (c *counter) plainWrite(v int64) {
	c.raw = v // want `field raw is //act:atomic but accessed without sync/atomic`
}

// lostUpdate is the classic racy read-modify-write: a concurrent Add
// between the Load and the Store is overwritten.
func (c *counter) lostUpdate() {
	v := c.hits.Load()
	c.hits.Store(v + 1) // want `load-then-store on atomic field hits is a racy read-modify-write`
}

// bumpInline is the same lost update in one expression: the nested Load
// completes before the Store that encloses it.
func (c *counter) bumpInline() {
	c.hits.Store(c.hits.Load() + 1) // want `load-then-store on atomic field hits is a racy read-modify-write`
}

// view is a published composed snapshot, replaced slot by slot.
type view struct {
	//act:published
	//act:atomic
	cur atomic.Pointer[[]int]
}

// swapSlot's CAS loop is a publish all the same: outside an
// //act:publisher function it bypasses the publish machinery.
func (v *view) swapSlot(i, x int) {
	for {
		old := v.cur.Load()
		next := append([]int(nil), *old...)
		next[i] = x
		if v.cur.CompareAndSwap(old, &next) { // want `CompareAndSwap on published field cur outside an //act:publisher function`
			return
		}
	}
}
