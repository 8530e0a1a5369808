package exec

import (
	"time"

	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
)

// poolCtx drives the machine one fork/join step per loop. The body runs
// once, on the caller, which is worker 0 of every loop: each loop releases
// workers 1..P-1, runs worker 0's share on the caller and joins them
// before returning, so every loop boundary is already a PRAM round
// boundary and Barrier degenerates to a no-op. Serial code between loops —
// the Single sections of the SPMD form — runs inline while the helpers are
// parked, exactly as today's pool kernels wrote it.
//
// With metrics on, the caller is the coordinator: it wraps every loop in
// a wall clock (AddRoundTime) and counts NextRound advances. With metrics
// off (rec == nil), each loop pays one extra nil check and nothing else.
type poolCtx struct {
	m     *machine.Machine
	flag  *Flag
	rec   *metrics.Recorder
	round uint32
}

func (c *poolCtx) P() int      { return c.m.P() }
func (c *poolCtx) Worker() int { return 0 }

func (c *poolCtx) For(n int, body func(i int)) {
	if c.rec != nil {
		t0 := time.Now()
		c.m.ParallelFor(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.m.ParallelFor(n, body)
}

func (c *poolCtx) ForWorker(n int, body func(i, w int)) {
	if c.rec != nil {
		t0 := time.Now()
		c.m.ParallelForWorker(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.m.ParallelForWorker(n, body)
}

func (c *poolCtx) Range(n int, body func(lo, hi, w int)) {
	if c.rec != nil {
		t0 := time.Now()
		c.m.ParallelRange(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.m.ParallelRange(n, body)
}

func (c *poolCtx) Bounds(b []int, body func(lo, hi, w int)) {
	if c.rec != nil {
		t0 := time.Now()
		c.m.ParallelBounds(b, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.m.ParallelBounds(b, body)
}

func (c *poolCtx) StealRange(n int, body func(lo, hi, w int)) {
	if c.rec != nil {
		t0 := time.Now()
		c.m.ParallelSteal(n, body)
		c.rec.AddRoundTime(time.Since(t0))
		return
	}
	c.m.ParallelSteal(n, body)
}

// Barrier is a no-op: each pool loop closed its own step, which is the
// barrier. Nothing runs concurrently with the caller between loops.
func (c *poolCtx) Barrier() {}

// Single runs f inline: between steps the caller is the only running
// worker — the helpers are parked — so it alone touches kernel state.
func (c *poolCtx) Single(f func()) { f() }

func (c *poolCtx) Flag() *Flag { return c.flag }

func (c *poolCtx) NextRound() uint32 {
	c.round++
	c.rec.AddRounds(1)
	return c.round
}

func (c *poolCtx) Metrics() *metrics.Recorder { return c.rec }
