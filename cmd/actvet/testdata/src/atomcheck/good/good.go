// Package fixture shows the shapes atomcheck accepts: declared atomic
// fields operated through their methods, a legacy word reached only via
// sync/atomic, single-op RMWs, a CAS loop, lock-protected load-then-stores,
// and a declared publisher's CAS loop on the published pointer.
package fixture

import (
	"sync"
	"sync/atomic"
)

// counter keeps all its atomic state declared and disciplined.
type counter struct {
	hits atomic.Int64 //act:atomic
	mode atomic.Int64 //act:atomic
	raw  int64        //act:atomic legacy word, touched only through sync/atomic
	mu   sync.Mutex   //act:lock ctrmu
}

// bump is a single atomic read-modify-write.
func (c *counter) bump() { c.hits.Add(1) }

// rawAdd touches the legacy word only through sync/atomic.
func (c *counter) rawAdd() int64 { return atomic.AddInt64(&c.raw, 1) }

// share hands the atomic out by pointer, never by value.
func (c *counter) share() *atomic.Int64 { return &c.hits }

// casLoop re-validates its read before every store.
func (c *counter) casLoop() {
	for {
		v := c.mode.Load()
		if c.mode.CompareAndSwap(v, v|4) {
			return
		}
	}
}

// reset rewrites the counter with its lock held across both ends, so no
// writer can interleave between the load and the store.
func (c *counter) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hits.Load() > 0 {
		c.hits.Store(0)
	}
}

// gauge also names its mutex mu. A //act:requires mu on its methods means
// gauge's own mu (class gaugemu), not counter's: the name resolves against
// the receiver struct first.
type gauge struct {
	level atomic.Int64 //act:atomic
	mu    sync.Mutex   //act:lock gaugemu
}

// raise runs with the gauge's lock held by contract, so the load and the
// store cannot be interleaved by another locked writer.
//
//act:requires mu
func (g *gauge) raise(by int64) {
	v := g.level.Load()
	g.level.Store(v + by)
}

// view is a published composed snapshot, replaced slot by slot.
type view struct {
	//act:published
	//act:atomic
	cur atomic.Pointer[[]int]
}

// swapSlot is a declared publisher, so its CAS loop may replace the view.
//
//act:publisher
func (v *view) swapSlot(i, x int) {
	for {
		old := v.cur.Load()
		next := append([]int(nil), *old...)
		next[i] = x
		if v.cur.CompareAndSwap(old, &next) {
			return
		}
	}
}
