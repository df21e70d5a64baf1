// Package good holds the publish idioms atomcheck and lockorder must
// accept.
package good

import (
	"sync"
	"sync/atomic"
)

type snap struct{ v int }

type index struct {
	mu sync.Mutex //act:lock ixmu

	//act:published
	//act:atomic
	cur atomic.Pointer[snap]

	buf []int //act:guarded mu
	n   int   //act:guarded mu
}

// publish is the sanctioned swap site.
//
//act:requires mu
//act:publisher
func (ix *index) publish(s *snap) { ix.cur.Store(s) }

// land swaps from a goroutine, which inherits the publisher annotation of
// its declaration (the compactor's landing path).
//
//act:publisher
func (ix *index) land(s *snap) {
	go func() {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		ix.cur.Swap(s)
	}()
}

// Len returns a value copy of guarded state, never an interior pointer.
func (ix *index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.n
}

// BufCopy returns a fresh copy: the sanctioned accessor shape for slices.
func (ix *index) BufCopy() []int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]int, len(ix.buf))
	copy(out, ix.buf)
	return out
}
