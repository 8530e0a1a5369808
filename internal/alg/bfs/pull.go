package bfs

import (
	"sync/atomic"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
)

// Direction-optimizing BFS (Beamer, Asanović, Patterson, SC'12) on top of
// the CAS-LT kernel.
//
// The push formulations above relax every arc out of the frontier, and
// each discovery is a *common concurrent write*: several frontier vertices
// may discover the same u in one round, so the tuple write needs a CW
// method. The pull (bottom-up) formulation inverts the loop: every
// still-unreached vertex u scans its own adjacency list for a neighbor at
// the current level and, on success, writes its *own* tuple
// (Parent[u], SelEdge[u], Visited[u], Level[u]). Exactly one virtual
// processor writes each location — an *exclusive* write in PRAM terms — so
// no CAS-LT claim (and no round id) is needed at all. That makes pull the
// repo's EW ablation point against the paper's CW methods: same traversal,
// same tuple, no write contention by construction.
//
// Pull pays for that by touching every unreached vertex each level; it wins
// only when the frontier's arc count dwarfs the unexplored arc count,
// because most pull scans then terminate after a few arcs (the first
// neighbor probed is already at level L). The hybrid driver switches
// per level on Beamer's heuristic: push→pull when the frontier's outgoing
// arcs m_f exceed the unexplored arcs m_u / α, and pull→push when the
// frontier shrinks below N/β vertices. Each level is still one PRAM round
// bracketed by region barriers; only the loop *shape* (and hence the CW
// class) changes between rounds, never the round protocol around it. The
// per-level direction decision must be SPMD-consistent, so every worker
// tracks (m_f, m_u, direction) in worker-local variables updated from
// shared counters only after the level's Single published them — all
// workers therefore compute the identical decision sequence.
//
// SelEdge direction: a push discovery records the arc parent→u, a pull
// discovery the arc u→parent (the arc the scan actually examined — the
// reverse arc need not exist at a findable index in a directed CSR).
// ValidateBidir accepts either orientation; the strict push validator
// applies to push-only runs.

const (
	// HybridAlpha is the push→pull threshold: switch when
	// m_f * HybridAlpha > m_u (frontier arcs outgrow unexplored arcs/α).
	HybridAlpha = 14
	// HybridBeta is the pull→push threshold: switch back when the frontier
	// holds fewer than N/HybridBeta vertices.
	HybridBeta = 24
)

// NextDirection applies the Beamer switch with hysteresis: pull reports
// whether the *previous* level ran bottom-up; the return value directs the
// next level. mf is the arc count out of the current frontier, mu the arc
// count out of still-unvisited vertices, nf the frontier vertex count.
// Exported so the bench harness's deterministic work model replays the
// hybrid's direction decisions with the kernel's own rule.
func NextDirection(pull bool, mf, mu, nf, n uint64) bool {
	if !pull {
		return mf*HybridAlpha > mu
	}
	return nf*HybridBeta >= n
}

// pullLevel runs one bottom-up level over worker range [lo, hi): each
// still-unreached vertex scans its arcs for a neighbor at level L and
// claims itself for level L+1. level[u] is written only by the worker that
// owns u's shard (shards are static across levels), so the filter read is
// plain; neighbor levels are cross-worker and read atomically. Returns
// whether anything was discovered. onFound, if non-nil, observes each
// discovery (the hybrid driver's frontier collection).
func (k *Kernel) pullLevel(lo, hi int, L uint32, onFound func(u uint32)) bool {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	progress := false
	for u := lo; u < hi; u++ {
		if k.level[u] != Unreached {
			continue
		}
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v := targets[j]
			if atomic.LoadUint32(&k.level[v]) == L {
				k.parent[u] = v
				k.selEdge[u] = j
				atomic.StoreUint32(&k.visited[u], 1)
				atomic.StoreUint32(&k.level[u], L+1)
				progress = true
				if onFound != nil {
					onFound(uint32(u))
				}
				break
			}
		}
	}
	return progress
}

// pullLevelBits is pullLevel over the bit-packed representation: the
// unreached filter reads visBits and the neighbor-membership probe reads
// curBits (512 vertices per cache line each, versus 16 for the word
// arrays — the point of the bitmap variant). A discovery sets the vertex's
// bit in visBits and nextBits by fetch-OR; the bits are common CWs (every
// writer stores "set"), and since u is shard-owned this level the write is
// in fact exclusive — the OR only arbitrates word aliasing with the 63
// neighboring bits. level/parent/selEdge are written exactly as in
// pullLevel, so the output arrays stay byte-identical.
func (k *Kernel) pullLevelBits(lo, hi int, L uint32, onFound func(u uint32)) bool {
	offsets, targets := k.g.Offsets(), k.g.Targets()
	progress := false
	for u := lo; u < hi; u++ {
		if k.visBits.Test(u) {
			continue
		}
		for j := offsets[u]; j < offsets[u+1]; j++ {
			v := targets[j]
			if k.curBits.Test(int(v)) {
				k.parent[u] = v
				k.selEdge[u] = j
				k.visBits.Set(u)
				k.nextBits.Set(u)
				atomic.StoreUint32(&k.level[u], L+1)
				progress = true
				if onFound != nil {
					onFound(uint32(u))
				}
				break
			}
		}
	}
	return progress
}

// requireSymmetric guards the bottom-up variants: pull scans a vertex's
// *out*-arcs to find a parent, which finds the in-neighbors only when the
// CSR stores both directions.
func (k *Kernel) requireSymmetric() {
	if !k.g.Undirected() {
		panic("bfs: pull/hybrid BFS requires an undirected (symmetric) graph")
	}
}

// RunCASLTPull executes a pure bottom-up BFS under the machine's default
// execution backend. Prepare must have been called first. Every level
// sweeps all unreached vertices (under the kernel's balance policy), so
// this is the ablation endpoint, not the practical kernel — use
// RunCASLTHybrid for that. No CAS-LT rounds are consumed: all writes are
// exclusive.
func (k *Kernel) RunCASLTPull() Result { return k.RunCASLTPullExec(k.m.Exec()) }

// RunCASLTPullExec is RunCASLTPull under an explicit execution backend.
func (k *Kernel) RunCASLTPullExec(e machine.Exec) Result {
	k.requireSymmetric()
	if k.bitmap {
		return k.runPullBitmap(e)
	}
	// Pull's writes are exclusive (each vertex writes only its own tuple),
	// so there are no selection attempts to record — the shard is unused.
	depth := k.runLevels(e, func(lo, hi, _ int, L, _ uint32, _ *metrics.Shard) bool {
		return k.pullLevel(lo, hi, L, nil)
	}, false)
	return k.result(int(depth))
}

// runPullBitmap is the bit-packed pure pull driver: the level-membership
// set lives in double-buffered bitmaps (curBits holds level L, discoveries
// OR into nextBits), swapped in a Single and followed by an O(N/64)
// clearing round of the consumed buffer. Per level that is three region
// rounds — sweep, swap, clear — versus runLevels' one, but the sweep (the
// part proportional to arcs) now reads 32× denser membership state.
func (k *Kernel) runPullBitmap(e machine.Exec) Result {
	if k.balance == graph.BalanceEdge {
		k.ensureArcBounds() // allocate outside the region
	}
	k.curBits.Set(int(k.source))
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		rec := ctx.Metrics()
		progress := ctx.Flag()
		L := uint32(0)
		for {
			progress.Set(L+1, 0) // prime next level's flag (common CW)
			if ctx.Worker() == 0 {
				rec.AddRounds(1)
			}
			k.ctxSweep(ctx, func(lo, hi, w int) {
				if k.pullLevelBits(lo, hi, L, nil) {
					progress.Set(L, 1)
				}
			})
			if progress.Get(L) == 0 {
				if ctx.Worker() == 0 {
					depth = L
				}
				break
			}
			ctx.Single(func() { k.curBits, k.nextBits = k.nextBits, k.curBits })
			// Clear the consumed buffer (now nextBits) for level L+1's
			// discoveries; sharded bit clears are word-boundary safe.
			ctx.Range(k.n, func(lo, hi, _ int) { k.nextBits.ResetRange(lo, hi) })
			L++
		}
	})
	return k.result(int(depth))
}

// RunCASLTHybrid executes the direction-optimizing BFS under the machine's
// default execution backend: push levels are the CAS-LT frontier
// relaxation (edge- or vertex-balanced), pull levels the bottom-up scan,
// chosen per level by NextDirection. The explicit frontier is maintained
// through both directions; m_u starts at the graph's arc count minus the
// source's degree and decreases by each level's discovered arc count.
// Prepare must have been called first.
func (k *Kernel) RunCASLTHybrid() Result { return k.RunCASLTHybridExec(k.m.Exec()) }

// RunCASLTHybridExec is RunCASLTHybrid under an explicit execution
// backend. Per level it costs the relax/pull sweep round, the Single that
// assembles offsets and the level's arc count, and the copy round — the
// same three-round shape as RunCASLTFrontierExec regardless of direction.
func (k *Kernel) RunCASLTHybridExec(e machine.Exec) Result {
	k.requireSymmetric()
	offsets := k.g.Offsets()
	p := k.m.P()
	k.ensureFrontierState()
	if k.balance == graph.BalanceEdge {
		k.ensureArcBounds() // allocate outside the region
	}
	k.frontier = append(k.frontier[:0], k.source)
	mfInit := uint64(k.g.Degree(k.source))
	muInit := uint64(k.g.NumArcs()) - mfInit
	var depth uint32
	k.trace = exec.Run(k.m, e, func(ctx exec.Ctx) {
		fl := k.newFrontierLevel(ctx)
		mf, mu := mfInit, muInit
		pull := false
		for {
			L := fl.L
			pull = NextDirection(pull, mf, mu, uint64(len(k.frontier)), uint64(k.n))
			fl.round = k.base + L + 1
			frontier := k.frontier
			fl.frontier = frontier
			if pull {
				onFound := func(w int) func(u uint32) {
					return func(u uint32) {
						k.bufs[w] = append(k.bufs[w], u)
						k.degSum[w] += uint64(offsets[u+1] - offsets[u])
					}
				}
				if k.bitmap {
					// Push→pull conversion: rebuild the level-L membership
					// bitmap from the explicit frontier list (one clearing
					// round plus one fetch-OR per frontier vertex), so the
					// pull sweep probes bits regardless of which direction
					// produced the frontier.
					ctx.Range(k.n, func(lo, hi, _ int) { k.curBits.ResetRange(lo, hi) })
					ctx.ForWorker(len(frontier), func(i, _ int) { k.curBits.Set(int(frontier[i])) })
					k.ctxSweep(ctx, func(lo, hi, w int) {
						k.pullLevelBits(lo, hi, L, onFound(w))
					})
				} else {
					k.ctxSweep(ctx, func(lo, hi, w int) {
						k.pullLevel(lo, hi, L, onFound(w))
					})
				}
			} else {
				fl.relaxLevel()
			}
			ctx.Single(fl.assemble)
			// Single's barrier published the offsets, the swap and discArcs.
			mu -= k.discArcs
			mf = k.discArcs
			if len(k.frontier) == 0 {
				if ctx.Worker() == 0 {
					depth = L
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
