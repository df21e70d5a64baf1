// Package bad exercises the publish rules the retired publishcheck
// analyzer held: atomcheck reports writes to the published snapshot
// pointer outside the publish machinery, and lockorder reports exported
// methods returning guarded reference-typed state.
package bad

import (
	"sync"
	"sync/atomic"
)

type snap struct{ v int }

// index publishes its snapshot through cur.
type index struct {
	mu sync.Mutex //act:lock ixmu

	//act:published
	//act:atomic
	cur atomic.Pointer[snap]

	buf []int //act:guarded mu
}

// sneakyStore publishes without being a declared publisher.
func (ix *index) sneakyStore(s *snap) {
	ix.cur.Store(s) // want `Store on published field cur outside an //act:publisher function`
}

// sneakySwap is the same bypass through Swap.
func (ix *index) sneakySwap(s *snap) *snap {
	return ix.cur.Swap(s) // want `Swap on published field cur outside an //act:publisher function`
}

// Buf hands callers an interior pointer into state that keeps mutating
// under mu.
func (ix *index) Buf() []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.buf // want `exported method Buf returns guarded field buf`
}
