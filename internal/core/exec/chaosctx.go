package exec

import "crcwpram/internal/core/chaos"

// chaosCtx wraps another backend's Ctx so that every work-shared loop
// passes through the machine's chaos.Injector: per-worker stalls before
// and after loop iterations (the iteration is the claim-bearing unit —
// a stall after iteration i lands immediately before iteration i+1's
// claim) and delays between claiming a steal chunk and executing it. It
// overrides only the loops; every other method is the wrapped backend's.
// Barrier-arrival jitter and the loss-driven faults (Gosched storms,
// sticky losers) do not live here: the machine delivers the jitter at its
// barrier arrivals, and the loss faults fire from the metrics claim hook,
// which the machine wires when WithChaos is given.
//
// The wrapper is pure scheduling perturbation — it forwards every value
// and every body unchanged — so a kernel body cannot observe it except
// through timing. Run installs it around the pool and team contexts when
// the machine carries an injector; the trace backend is never wrapped
// (its serial replay has no schedule to perturb).
type chaosCtx struct {
	Ctx
	inj *chaos.Injector
}

func (c *chaosCtx) For(n int, body func(i int)) {
	c.Ctx.ForWorker(n, func(i, w int) {
		c.inj.IterPre(w)
		body(i)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) ForWorker(n int, body func(i, w int)) {
	c.Ctx.ForWorker(n, func(i, w int) {
		c.inj.IterPre(w)
		body(i, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) Range(n int, body func(lo, hi, w int)) {
	c.Ctx.Range(n, func(lo, hi, w int) {
		c.inj.IterPre(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	c.Ctx.Bounds(bounds, func(lo, hi, w int) {
		c.inj.IterPre(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}

func (c *chaosCtx) StealRange(n int, body func(lo, hi, w int)) {
	c.Ctx.StealRange(n, func(lo, hi, w int) {
		c.inj.StealDelay(w)
		body(lo, hi, w)
		c.inj.IterPost(w)
	})
}
