package barrier

import (
	"runtime"
	"sync/atomic"
)

// spinsBeforeYield bounds busy-waiting before a waiter starts yielding its
// thread to the scheduler. Pure spinning is fastest when every party has a
// dedicated core (the paper sets OMP_WAIT_POLICY=active for exactly this
// reason); yielding keeps the barrier live-lock free when goroutines
// outnumber cores, which is the common case for this library's tests.
const spinsBeforeYield = 128

// Sense is a sense-reversing barrier: one shared atomic arrival counter and
// a global sense word that flips each phase. Instead of goroutine-local
// sense (Go has no cheap goroutine-local storage), each Wait derives the
// sense that will end its phase from the shared sense word at entry. This is
// sound because a party reads the sense word before decrementing the arrival
// counter, and the flip can only happen after every party of the phase has
// decremented — so all parties of a phase agree on the release sense.
type Sense struct {
	parties int32
	count   atomic.Int32  // arrivals remaining in the current phase
	sense   atomic.Uint32 // flips 0/1 each phase
	aborted atomic.Bool
}

// NewSense returns a sense-reversing barrier for the given party size.
func NewSense(parties int) *Sense {
	if parties < 1 {
		panic("barrier: parties must be >= 1")
	}
	b := &Sense{parties: int32(parties)}
	b.count.Store(int32(parties))
	return b
}

// Parties returns the fixed party size.
func (b *Sense) Parties() int { return int(b.parties) }

// Wait blocks until all parties of the current phase have arrived, or the
// barrier is aborted. The worker id is ignored.
func (b *Sense) Wait(worker int) bool {
	local := b.sense.Load() ^ 1 // the sense value that ends this phase
	if b.count.Add(-1) == 0 {
		// Last arrival: reset the count for the next phase, then flip the
		// sense to release the waiters. Order matters — count must be
		// ready before anyone leaves.
		b.count.Store(b.parties)
		b.sense.Store(local)
		return !b.aborted.Load()
	}
	return await(&b.sense, local, &b.aborted)
}

// Abort releases every spinning waiter with false once it next yields.
func (b *Sense) Abort() { b.aborted.Store(true) }

// await spins until sense reaches local, yielding after spinsBeforeYield
// spins. Abort is the cold path: it is checked only before a yield, so the
// hot release loop stays load-only.
func await(sense *atomic.Uint32, local uint32, aborted *atomic.Bool) bool {
	for spins := 0; sense.Load() != local; spins++ {
		if spins > spinsBeforeYield {
			if aborted.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}
