package exec

import (
	"time"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
)

// teamCtx adapts a machine.TeamCtx: the body runs once per worker inside
// one persistent parallel region, every loop ends in a real sense
// barrier, and Single elects worker 0. The only translation needed is
// injecting the worker id into the Range/Bounds body signature, which
// TeamCtx exposes as a field rather than an argument.
//
// With metrics on, worker 0 is the region's coordinator: its copy of each
// loop — which opens and closes at the same barriers as everyone else's —
// supplies the round wall time, and its NextRound advances supply the
// round count, so coordinator counters are written by exactly one worker:
// the caller itself, which runs worker 0's copy of the region.
type teamCtx struct {
	tc    *machine.TeamCtx
	flag  *Flag
	rec   *metrics.Recorder
	round uint32
}

func (c *teamCtx) P() int      { return c.tc.P() }
func (c *teamCtx) Worker() int { return c.tc.W }

// coordinates reports whether this worker records coordinator metrics.
func (c *teamCtx) coordinates() bool { return c.rec != nil && c.tc.W == 0 }

func (c *teamCtx) For(n int, body func(i int)) {
	if c.coordinates() {
		t0 := time.Now()
		c.tc.For(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.tc.For(n, body)
}

func (c *teamCtx) ForWorker(n int, body func(i, w int)) {
	if c.coordinates() {
		t0 := time.Now()
		c.tc.ForWorker(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.tc.ForWorker(n, body)
}

func (c *teamCtx) Range(n int, body func(lo, hi, w int)) {
	w := c.tc.W
	if c.coordinates() {
		t0 := time.Now()
		c.tc.Range(n, func(lo, hi int) { body(lo, hi, w) })
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.tc.Range(n, func(lo, hi int) { body(lo, hi, w) })
}

func (c *teamCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	w := c.tc.W
	if c.coordinates() {
		t0 := time.Now()
		c.tc.Bounds(bounds, func(lo, hi int) { body(lo, hi, w) })
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.tc.Bounds(bounds, func(lo, hi int) { body(lo, hi, w) })
}

func (c *teamCtx) StealRange(n int, body func(lo, hi, w int)) {
	w := c.tc.W
	if c.coordinates() {
		t0 := time.Now()
		c.tc.Steal(n, func(lo, hi int) { body(lo, hi, w) })
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.tc.Steal(n, func(lo, hi int) { body(lo, hi, w) })
}

func (c *teamCtx) Barrier()        { c.tc.Barrier() }
func (c *teamCtx) Single(f func()) { c.tc.Single(f) }

func (c *teamCtx) Flag() *Flag { return c.flag }

// NextRound advances this worker's copy of the region round counter. All
// workers execute the same round sequence (SPMD discipline), so their
// counters agree without synchronization.
func (c *teamCtx) NextRound() uint32 {
	c.round++
	if c.coordinates() {
		c.rec.AddRounds(1)
	}
	return c.round
}

func (c *teamCtx) Metrics() *metrics.Recorder { return c.rec }
