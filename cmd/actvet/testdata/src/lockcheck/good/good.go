// Package good holds the locking idioms lockorder must accept.
package good

import "sync"

type counter struct {
	mu sync.Mutex //act:lock cmu
	n  int        //act:guarded mu
}

//act:requires mu
func (c *counter) bump() { c.n++ }

// Add locks at the top with a deferred unlock and calls the helper.
func (c *counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
	c.n++
}

// AddDeferred runs a deferred closure under the caller's lock.
func (c *counter) AddDeferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.n++ }()
}

// AddAsync starts a goroutine that acquires the mutex itself.
func (c *counter) AddAsync() {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.n++
	}()
}

// newCounter owns a fresh, unshared value; no locking applies yet.
//
//act:exclusive
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

var _ = newCounter
