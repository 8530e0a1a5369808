package bfs

import (
	"sync/atomic"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
	"crcwpram/internal/sched"
)

// This file implements the frontier-based refinement of the paper's BFS:
// instead of sweeping all N vertices per level to find the frontier (the
// Rodinia formulation of Figure 3, whose per-level cost is Θ(N) even for
// tiny frontiers), the kernel carries the frontier explicitly. Winners
// append their discoveries to per-worker buffers, and the next frontier is
// assembled with a serial P-element offset scan plus a parallel copy — the
// same work-sharing shape as everything else on the machine. The
// concurrent-write handling is unchanged (CAS-LT with the level as the
// round id), so the variant isolates the algorithmic sweep cost from the
// CW method cost; the ablation benchmark compares the two formulations.
//
// The level loop is one SPMD body over exec.Ctx: the offset scan runs in a
// Single (one worker between barriers under team, inline under pool), and
// a level costs three region rounds — relax, single, copy — under every
// backend. Under edge balance the frontier itself is re-sharded every
// level: the frontier vertices' degrees are block-scanned in-region (two
// aligned Range passes around a Single, the textbook block scan) into an
// arc-prefix array, and each shard takes a near-equal-arc slice of it
// (sched.WeightedRange), so one hub on the frontier no longer serializes
// the level behind a single worker.

// ensureFrontierState lazily allocates the frontier variant's buffers: the
// two level buffers (current and next frontier), the per-worker discovery
// buffers, the offset scratch, and — when the kernel is edge-balanced — the
// frontier-degree arrays. Both level buffers are owned by the kernel and
// survive across runs, so repeated runs reuse grown capacity instead of
// re-appending into a stale slice header. Entry points call this before
// the region opens, so allocation never races.
func (k *Kernel) ensureFrontierState() {
	p := k.m.P()
	if k.bufs == nil {
		k.bufs = make([][]uint32, p)
		k.wOff = make([]int, p+1)
		k.degSum = make([]uint64, p)
	}
	if cap(k.frontier) < k.n {
		k.frontier = make([]uint32, 0, k.n)
		k.next = make([]uint32, 0, k.n)
	}
	if k.balance == graph.BalanceEdge && len(k.cum) < k.n+1 {
		k.deg = make([]uint32, k.n)
		k.cum = make([]uint32, k.n+1)
		k.degPart = make([]uint32, p)
	}
}

// frontierLevel is one SPMD copy's push-level loop state: the variables a
// level updates (L, round, frontier) are fields, and every loop body the
// level hands to the context is a method value bound once per Run (once per
// SPMD copy under team) — binding a closure per level would allocate per
// level.
type frontierLevel struct {
	k                 *Kernel
	ctx               exec.Ctx
	rec               *metrics.Recorder
	offsets, targets  []uint32
	frontier          []uint32 // the level being relaxed
	L, round          uint32
	relaxIndex        func(i, w int)
	relaxChunk        func(lo, hi, w int)
	degPass, cumPass  func(lo, hi, w int)
	degScan, assemble func()
	relaxShard        func(shard, w int)
	copyBack          func(i, w int)
}

func (k *Kernel) newFrontierLevel(ctx exec.Ctx) *frontierLevel {
	fl := &frontierLevel{k: k, ctx: ctx, rec: ctx.Metrics(), offsets: k.g.Offsets(), targets: k.g.Targets()}
	fl.relaxIndex = fl.relaxAt
	fl.relaxChunk = fl.relaxRange
	fl.degPass = fl.degrees
	fl.degScan = fl.scanDegrees
	fl.cumPass = fl.prefixDegrees
	fl.relaxShard = fl.relaxWeighted
	fl.assemble = fl.assembleNext
	fl.copyBack = fl.copyBuffer
	return fl
}

// relax relaxes v's arcs on worker w: CAS-LT winners write the discovery
// tuple and append the vertex to w's buffer, adding its degree to w's
// degSum slot (the hybrid kernel's frontier-edge counter).
func (fl *frontierLevel) relax(v uint32, w int) {
	k, offsets, targets, L, round := fl.k, fl.offsets, fl.targets, fl.L, fl.round
	sh := fl.rec.Shard(w)
	for j := offsets[v]; j < offsets[v+1]; j++ {
		u := targets[j]
		if k.bitmap {
			// Bit-packed path: the visited filter and the claim both live
			// in visBits. The filter Test plays the role of the word
			// path's visited load (unrecorded, zero RMWs); the claim's
			// own pre-check then mirrors the CAS-LT cell pre-check, so
			// cas_attempts/precheck_skips keep their meaning. The winning
			// fetch-OR needs no round id — "visited" is a common write —
			// and winner selection arbitrates the tuple exactly as the
			// round-stamped cell does.
			if k.visBits.Test(int(u)) {
				continue
			}
			if sh.Claim(int(u), round, k.visBits.TryClaimBitOutcome(int(u))) {
				k.parent[u] = v
				k.selEdge[u] = j
				atomic.StoreUint32(&k.level[u], L+1)
				k.bufs[w] = append(k.bufs[w], u)
				k.degSum[w] += uint64(offsets[u+1] - offsets[u])
			}
			continue
		}
		if atomic.LoadUint32(&k.visited[u]) != 0 {
			continue
		}
		if sh.Claim(int(u), round, k.cells.TryClaimOutcome(int(u), round)) {
			k.parent[u] = v
			k.selEdge[u] = j
			atomic.StoreUint32(&k.visited[u], 1)
			atomic.StoreUint32(&k.level[u], L+1)
			k.bufs[w] = append(k.bufs[w], u)
			k.degSum[w] += uint64(offsets[u+1] - offsets[u])
		}
	}
}

func (fl *frontierLevel) relaxAt(i, w int) { fl.relax(fl.frontier[i], w) }

func (fl *frontierLevel) relaxRange(lo, hi, w int) {
	for i := lo; i < hi; i++ {
		fl.relax(fl.frontier[i], w)
	}
}

// relaxLevel runs one push level over fl.frontier. Partitioning follows
// the kernel's balance policy. Ends with the level's closing barrier
// either way (the loop constructs' own).
func (fl *frontierLevel) relaxLevel() {
	k, ctx, nf := fl.k, fl.ctx, len(fl.frontier)
	if k.balance == graph.BalanceEdge && nf > 1 {
		ctx.Range(nf, fl.degPass)
		ctx.Single(fl.degScan)
		ctx.Range(nf, fl.cumPass)
		// One shard per slot; the executing worker owns the discovery
		// buffer, so this is balanced under any loop policy.
		ctx.ForWorker(ctx.P(), fl.relaxShard)
		return
	}
	if k.steal && nf > 1 {
		// Work-stealing relaxation: chunks of the frontier migrate from
		// straggling workers (the ones that drew the hubs) to idle ones.
		// The executing worker owns the discovery buffer it appends to, so
		// chunk migration never moves a buffer between workers mid-append.
		ctx.StealRange(nf, fl.relaxChunk)
		return
	}
	ctx.ForWorker(nf, fl.relaxIndex)
}

// degrees is edge balance's pass 1: degrees plus each block's partial
// sum. Shares map to workers block-wise under every backend, so the
// partial lands in the share's own slot.
func (fl *frontierLevel) degrees(lo, hi, w int) {
	k := fl.k
	var s uint32
	for i := lo; i < hi; i++ {
		v := fl.frontier[i]
		k.deg[i] = fl.offsets[v+1] - fl.offsets[v]
		s += k.deg[i]
	}
	k.degPart[w] = s
}

// scanDegrees is the serial P-element exclusive scan of the partials.
// Empty shares never ran pass 1, so their stale slots are re-derived from
// the same block partition the loops use.
func (fl *frontierLevel) scanDegrees() {
	k, nf, p := fl.k, len(fl.frontier), fl.ctx.P()
	var tot uint32
	for i := 0; i < p; i++ {
		if lo, hi := sched.BlockRange(nf, p, i); lo == hi {
			k.degPart[i] = 0
		}
		s := k.degPart[i]
		k.degPart[i] = tot
		tot += s
	}
	k.cum[nf] = tot
}

// prefixDegrees is pass 2: same block ranges, so each share's partial
// lines up.
func (fl *frontierLevel) prefixDegrees(lo, hi, w int) {
	k := fl.k
	run := k.degPart[w]
	for i := lo; i < hi; i++ {
		k.cum[i] = run
		run += k.deg[i]
	}
}

func (fl *frontierLevel) relaxWeighted(shard, w int) {
	nf := len(fl.frontier)
	lo, hi := sched.WeightedRange(fl.k.cum[:nf+1], fl.ctx.P(), shard)
	fl.relaxRange(lo, hi, w)
}

// assembleNext is the level's Single: it lays out the per-worker offsets,
// sums and re-zeroes the degSum counters into discArcs, and swaps the
// kernel-owned buffers — the assembled frontier becomes current, the
// consumed one the next level's target.
func (fl *frontierLevel) assembleNext() {
	k, p := fl.k, fl.ctx.P()
	total := 0
	var disc uint64
	for i := 0; i < p; i++ {
		k.wOff[i] = total
		total += len(k.bufs[i])
		disc += k.degSum[i]
		k.degSum[i] = 0
	}
	k.wOff[p] = total
	k.discArcs = disc
	k.frontier, k.next = k.next[:total], fl.frontier[:0]
}

// copyBuffer copies worker i's discoveries into the assembled frontier,
// published by assembleNext's barrier.
func (fl *frontierLevel) copyBuffer(i, _ int) {
	k := fl.k
	copy(k.frontier[k.wOff[i]:k.wOff[i+1]], k.bufs[i])
	k.bufs[i] = k.bufs[i][:0]
}

// RunCASLTFrontier executes BFS with an explicit frontier and
// CAS-LT-guarded discovery tuples under the machine's default execution
// backend. Prepare must have been called first.
func (k *Kernel) RunCASLTFrontier() Result { return k.RunCASLTFrontierExec(k.m.Exec()) }

// RunCASLTFrontierExec is RunCASLTFrontier under an explicit execution
// backend.
func (k *Kernel) RunCASLTFrontierExec(e machine.Exec) Result {
	p := k.m.P()
	k.ensureFrontierState()
	k.frontier = append(k.frontier[:0], k.source)
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		fl := k.newFrontierLevel(ctx)
		for {
			fl.round = k.base + fl.L + 1
			fl.frontier = k.frontier
			fl.relaxLevel()
			ctx.Single(fl.assemble)
			// Single's barrier published the offsets and the swap.
			if len(k.frontier) == 0 {
				if ctx.Worker() == 0 {
					depth = fl.L
				}
				break
			}
			ctx.ForWorker(p, fl.copyBack)
			fl.L++
		}
	})
	k.base += depth + 1
	return k.result(int(depth))
}

// frontierStateBytes reports the extra memory the frontier variant keeps,
// for tests asserting it stays O(N + P).
func (k *Kernel) frontierStateBytes() int {
	if k.bufs == nil {
		return 0
	}
	b := cap(k.frontier)*4 + cap(k.next)*4 + len(k.wOff)*8
	for _, buf := range k.bufs {
		b += cap(buf) * 4
	}
	return b
}
