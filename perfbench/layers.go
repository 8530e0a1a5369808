package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"crcwpram/internal/barrier"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/sched"
)

// This file holds the L0/L1 microbenchmarks: two goroutines (or a P=2
// machine) calling one layer's public functions, each reported as the
// median over reps of wall time per operation.

const microReps = 7

// pair runs body(0) and body(1) on two goroutines released together and
// returns the wall time until both return.
func pair(body func(w int)) time.Duration {
	var done sync.WaitGroup
	start := make(chan struct{})
	done.Add(2)
	for w := 0; w < 2; w++ {
		go func() {
			defer done.Done()
			<-start
			body(w)
		}()
	}
	t0 := time.Now()
	close(start)
	done.Wait()
	return time.Since(t0)
}

// nsPerOp returns the median over microReps of timed()/ops in ns; reset
// runs untimed before each rep.
func nsPerOp(ops int, reset func(), timed func() time.Duration) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		if reset != nil {
			reset()
		}
		xs[i] = float64(timed()) / float64(ops)
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// claimNs times two goroutines each sweeping n cells with claim: shared
// sweeps one array from both goroutines (every cell has two contenders),
// spread gives each goroutine its own array. The result is ns per call.
func claimNs[A any](n int, shared bool, alloc func() A, reset func(A), claim func(a A, i int)) float64 {
	arrs := [2]A{alloc(), alloc()}
	if shared {
		arrs[1] = arrs[0]
	}
	return nsPerOp(n, func() {
		if reset != nil {
			reset(arrs[0])
			reset(arrs[1])
		}
	}, func() time.Duration {
		return pair(func(w int) {
			a := arrs[w]
			for i := 0; i < n; i++ {
				claim(a, i)
			}
		})
	})
}

// cwMicro measures the L0 claim primitives.
func cwMicro(mini bool) map[string]float64 {
	n := pick(mini, 1<<18, 1<<10)
	out := make(map[string]float64)
	for _, shared := range []bool{true, false} {
		mode := map[bool]string{true: "shared", false: "spread"}[shared]
		// CAS-LT needs no reset: each rep claims under a fresh round id.
		var round uint32
		out["cw.caslt.claim_ns."+mode] = claimNs(n, shared,
			func() *cw.Array { return cw.NewArray(n, cw.Packed) },
			func(*cw.Array) { round++ },
			func(a *cw.Array, i int) { a.TryClaim(i, round) })
		out["cw.gatekeeper.enter_ns."+mode] = claimNs(n, shared,
			func() *cw.GateArray { return cw.NewGateArray(n, cw.Packed) },
			func(g *cw.GateArray) { g.ResetRange(0, n) },
			func(g *cw.GateArray, i int) { g.TryEnter(i) })
		out["cw.bitarray.claim_ns."+mode] = claimNs(n, shared,
			func() *cw.BitArray { return cw.NewBitArray(n) },
			func(b *cw.BitArray) { b.ResetRange(0, n) },
			func(b *cw.BitArray, i int) { b.TryClaimBit(i) })
	}
	// The gatekeeper's O(N) reinit pass, sharded over two goroutines.
	big := pick(mini, 1<<22, 1<<12)
	g := cw.NewGateArray(big, cw.Packed)
	out["cw.gatekeeper.reset_ns_per_cell"] = nsPerOp(big, nil, func() time.Duration {
		return pair(func(w int) { g.ResetRange(w*big/2, (w+1)*big/2) })
	})
	return out
}

// machineMicro measures the L1 round, barrier, region and loop-schedule
// costs on two workers.
func machineMicro(mini bool) map[string]float64 {
	rounds := pick(mini, 20000, 200)
	out := make(map[string]float64)
	for _, e := range machine.Execs {
		m := machine.New(2)
		out["machine."+e.String()+".round_ns"] = nsPerOp(rounds, nil, func() time.Duration {
			start := time.Now()
			exec.Run(m, e, func(ctx exec.Ctx) {
				for r := 0; r < rounds; r++ {
					ctx.For(2, func(int) {})
				}
			})
			return time.Since(start)
		})
		regions := rounds / 4
		out["exec."+e.String()+".region_ns"] = nsPerOp(regions, nil, func() time.Duration {
			start := time.Now()
			for r := 0; r < regions; r++ {
				exec.Run(m, e, func(exec.Ctx) {})
			}
			return time.Since(start)
		})
		m.Close()
	}
	for _, k := range barrier.Kinds {
		bar := barrier.New(k, 2)
		out["barrier."+k.String()+".wait_ns"] = nsPerOp(rounds, nil, func() time.Duration {
			return pair(func(w int) {
				for r := 0; r < rounds; r++ {
					bar.Wait(w)
				}
			})
		})
	}
	iters := pick(mini, 1<<20, 1<<12)
	for _, p := range []sched.Policy{sched.Block, sched.Dynamic, sched.Stealing} {
		m := machine.New(2, machine.WithPolicy(p))
		out["sched."+p.String()+".iter_ns"] = nsPerOp(iters, nil, func() time.Duration {
			start := time.Now()
			m.ParallelFor(iters, func(int) {})
			return time.Since(start)
		})
		m.Close()
	}
	return out
}

// snapshotCounts turns a metrics snapshot over passes passes into the
// per-layer counts (per pass) and ratios.
func snapshotCounts(s metrics.Snapshot, passes int) (counts, ratios map[string]float64) {
	per := func(x uint64) float64 { return float64(x) / float64(max(passes, 1)) }
	var busyMax, busySum int64
	for _, b := range s.WorkerBusyNs {
		busyMax = max(busyMax, b)
		busySum += b
	}
	counts = map[string]float64{
		"cw.cas_attempts": per(s.CASAttempts),
		"machine.rounds":  per(s.Rounds),
		"sched.steals":    per(s.Steals),
	}
	ratios = map[string]float64{
		"cw.win_ratio":               ratio(float64(s.CASWins), float64(s.CASAttempts)),
		"cw.precheck_skip_ratio":     ratio(float64(s.PrecheckSkips), float64(s.PrecheckSkips+s.CASAttempts)),
		"machine.barrier_wait_share": ratio(float64(s.BarrierWaitNs), float64(s.BarrierWaitNs+s.BusyNs)),
		"sched.steal_fail_ratio":     ratio(float64(s.StealFails), float64(s.Steals+s.StealFails)),
		"sched.busy_imbalance":       ratio(float64(busyMax)*float64(len(s.WorkerBusyNs)), float64(busySum)),
	}
	return counts, ratios
}

// traceCounts replays every job once under exec=trace and sums the
// structural counts of the pass.
func (b *bench) traceCounts(r *rig) map[string]float64 {
	var steps, barriers, rounds float64
	ps := passStats{run: make([]time.Duration, len(b.jobs))}
	for i, j := range b.jobs {
		set := j.set
		set.Exec = machine.ExecTrace
		if err := b.runJob(r, i, set, &ps, -1, -1); err != nil {
			b.fail(fmt.Sprintf("%s under exec=trace: %v", j.label(), err))
			continue
		}
		if st := r.insts[i].Trace(); st != nil {
			steps += float64(st.Steps)
			barriers += float64(st.Barriers)
			rounds += float64(st.Rounds)
		}
	}
	return map[string]float64{"exec.trace.steps": steps, "exec.trace.barriers": barriers, "exec.trace.rounds": rounds}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
