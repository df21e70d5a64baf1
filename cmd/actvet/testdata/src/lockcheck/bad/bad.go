// Package bad exercises the per-function lock rules lockorder took over
// from the retired lockcheck analyzer.
package bad

import "sync"

// counter guards n with mu, whose class is also named mu.
type counter struct {
	mu sync.Mutex //act:lock mu
	n  int        //act:guarded mu
}

//act:requires mu
func (c *counter) bump() { c.n++ }

func (c *counter) read() int {
	return c.n // want `access to counter\.n reaches state guarded by mu without mu held`
}

func (c *counter) bumpUnlocked() {
	c.bump() // want `call to bump reaches state guarded by mu without mu held`
}

func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `goroutine accesses counter\.n guarded by mu without acquiring it`
	}()
	go c.bump() // want `go statement calls bump, which requires mu held`
}
