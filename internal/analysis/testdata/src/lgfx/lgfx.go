// Fixture for the lockguard analyzer: `// guarded by <mu>` field
// annotations must be honored by every access path.
package lgfx

import (
	"sort"
	"sync"
)

// counter is the basic sibling-guard shape.
type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

func (c *counter) okLocked() {
	c.mu.Lock()
	c.n++ // ok: lock held
	c.mu.Unlock()
}

func (c *counter) okDeferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n // ok: deferred unlock keeps it held to the return
}

func (c *counter) badUnlocked() int {
	return c.n // want `c\.n read without holding mu`
}

func (c *counter) badAfterUnlock() {
	c.mu.Lock()
	c.n = 1 // ok
	c.mu.Unlock()
	c.n = 2 // want `c\.n written without holding mu`
}

// earlyReturn: a branch that unlocks and returns must not poison the
// fall-through path, and vice versa.
func (c *counter) okEarlyReturn() {
	c.mu.Lock()
	if c.n == 0 { // ok: still held here
		c.mu.Unlock()
		return
	}
	c.n++ // ok: the unlocking branch returned
	c.mu.Unlock()
}

func (c *counter) badMergedBranches(cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
	}
	c.n++ // want `c\.n written without holding mu`
}

// otherReceiver: holding one instance's lock does not excuse touching a
// *lexically different* sibling access under a different lock name.
type pair struct {
	amu sync.Mutex
	bmu sync.Mutex
	a   int // guarded by amu
	b   int // guarded by bmu
}

func (p *pair) badWrongLock() {
	p.amu.Lock()
	defer p.amu.Unlock()
	p.a = 1 // ok
	p.b = 1 // want `p\.b written without holding bmu`
}

// tryLock: the acquisition is conditional, so only the success branch
// holds the lock.
func (c *counter) tryLockForms() {
	if c.mu.TryLock() {
		c.n++ // ok
		c.mu.Unlock()
	}
	c.n++ // want `c\.n written without holding mu`

	if ok := c.mu.TryLock(); ok {
		c.n++ // ok
		c.mu.Unlock()
	}

	if !c.mu.TryLock() {
		return
	}
	c.n++ // ok: the failure branch returned
	c.mu.Unlock()
}

// rw: reads need at least RLock; writes need the write lock.
type rw struct {
	mu    sync.RWMutex
	state int // guarded by mu
}

func (r *rw) okRead() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.state // ok
}

func (r *rw) badWriteUnderRLock() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.state = 1 // want `r\.state written while holding only a read lock on mu`
}

// lockedSuffix: the *Locked naming convention means the caller holds
// the receiver's mutexes.
func (c *counter) bumpLocked() {
	c.n++ // ok: *Locked convention
}

// Sibling guards are lexical: holding one instance's lock does not
// cover another instance of the same type.
func moveBad(x, y *counter) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n++ // ok
	y.n++ // want `y\.n written without holding mu`
}

// closures do not inherit the caller's locks (they may run later, on
// another goroutine)…
func (c *counter) badClosure() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int {
		return c.n // want `c\.n read without holding mu`
	}()
}

// …but sort comparators run synchronously under the caller's locks.
type table struct {
	mu   sync.Mutex
	rows []int // guarded by mu
}

func (t *table) okSortUnderLock() {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.rows, func(i, j int) bool {
		return t.rows[i] < t.rows[j] // ok: comparators run under the caller's locks
	})
}

// composite literals initialize fresh, unpublished values: no lock
// needed for their keys.
func newCounter() *counter {
	return &counter{n: 1} // ok
}

// allow escape hatch.
func (c *counter) allowed() int {
	return c.n //howsim:allow lockguard -- snapshot read; staleness is acceptable here
}

// break and continue end their case or loop iteration, not the
// function: accesses after a switch whose cases all break, or after a
// loop left by break or continue, are still checked.
func (c *counter) badAfterBreakingSwitch(b bool) {
	switch {
	case b:
		break
	default:
		break
	}
	c.n++ // want `c\.n written without holding mu`
}

func (c *counter) badAfterBrokenLoop(xs []int) {
	c.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			c.mu.Unlock()
			break
		}
	}
	c.n++ // want `c\.n written without holding mu`
}

func (c *counter) badAfterContinuedLoop(xs []int) {
	c.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			c.mu.Unlock()
			continue
		}
	}
	c.n++ // want `c\.n written without holding mu`
}

func (c *counter) okBreakUnderLock(b bool) {
	c.mu.Lock()
	switch {
	case b:
		break
	default:
		c.n = 1 // ok
	}
	c.n++ // ok: every case leaves with the lock held
	c.mu.Unlock()
}

func (c *counter) badLabeledBreak(xs []int) {
	c.mu.Lock()
outer:
	for range xs {
		select {
		default:
			c.mu.Unlock()
			break outer
		}
	}
	c.n++ // want `c\.n written without holding mu`
}
