package barrier

import "sync"

// Central is the textbook counter barrier: a mutex-protected arrival count
// and a condition variable on which early arrivals sleep. The last arrival
// of each phase advances the generation and broadcasts.
//
// Central is the most portable and the friendliest to oversubscription
// (sleeping waiters consume no CPU), at the cost of O(P) serialized lock
// acquisitions per phase.
type Central struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
	aborted bool
}

// NewCentral returns a central barrier for the given party size.
func NewCentral(parties int) *Central {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	b := &Central{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Parties returns the fixed party size.
func (b *Central) Parties() int { return b.parties }

// Wait blocks until all parties of the current phase have arrived, or the
// barrier is aborted. The worker id is ignored.
func (b *Central) Wait(worker int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	gen := b.gen
	b.arrived++
	if b.arrived == b.parties {
		// Last arrival: open the next phase and release everyone.
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
	return gen != b.gen
}

// Abort wakes every sleeping waiter with false.
func (b *Central) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
