package exec

import "crcwpram/internal/core/machine"

// teamCtx is the team backend: machine.TeamCtx already carries every Ctx
// loop, barrier and round method — each worker runs the body once inside
// one persistent parallel region, every loop ends in the team barrier, and
// worker 0 records the round metrics — so the backend adds only the
// region's shared Flag.
type teamCtx struct {
	*machine.TeamCtx
	flag *Flag
}

func (c *teamCtx) Flag() *Flag { return c.flag }
