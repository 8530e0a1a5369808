// Team execution mode: one persistent parallel region per kernel.
//
// ParallelFor re-enters the worker pool from the caller on every PRAM
// round, which costs two P-party barrier phases (the caller is worker 0)
// and a fresh step descriptor per round — plus any serial caller-side work
// between rounds runs with workers 1..P-1 parked. The paper's OpenMP
// kernels instead open a single `#pragma omp parallel` region around the
// whole round loop (Figures 3-5) and pay one team barrier per round. Team
// reproduces that shape: the kernel body runs once on all P workers
// simultaneously — the caller as worker 0, as OpenMP's encountering thread
// is thread 0 of its team — and the in-region primitives on TeamCtx — For
// / ForWorker / Range / Bounds / StealRange (work-shared loop ending in a
// team barrier), Single (one worker executes, the rest wait), and Barrier
// — mirror `omp for`, `omp single` and `#pragma omp barrier`. Per empty
// round the fixed cost drops from two P-party phases plus step setup to
// one P-party phase.
//
// TeamCtx is the team backend of the exec package's kernel context: its
// methods carry exec.Ctx's signatures, and the exec package adds only the
// region's shared convergence flag. Each worker runs its share of a team
// loop through the same dispatch as a pool step, and the team barrier is
// a barrier.Barrier of the machine's kind (WithBarrier), aborted when a
// worker panics.
//
// A team body is SPMD code: every worker executes the same statements on
// the same shared state, so control flow that feeds a team primitive
// (loop trip counts, the n passed to For/Range, break decisions) must be
// computed identically by all workers — either from worker-local
// deterministic state or from shared state read after a barrier. The exec
// package's Flag packages the standard convergence-flag pattern race-free.
package machine

import (
	"runtime"
	"time"

	"crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
)

// teamAbort is the sentinel panic a worker raises to bail out of a team
// body after another worker's panic poisoned the region. It is recovered
// by the team driver and never recorded as a user panic.
type teamAbort struct{}

// TeamCtx is one worker's view of a team region. It is valid only inside
// the body passed to Machine.Team and must not leak to other goroutines.
//
// With metrics on, worker 0 is the region's coordinator: its copy of each
// loop — which opens and closes at the same barriers as everyone else's —
// supplies the round wall time, and its NextRound advances supply the
// round count, so coordinator counters are written by exactly one worker:
// the caller itself, which runs worker 0's copy of the region.
type TeamCtx struct {
	m *Machine
	w int
	// epoch counts this worker's loops that need the shared cursor or
	// stealer, keying the reset ticket. All workers execute the same loop
	// sequence, so their epochs agree.
	epoch uint64
	// loops counts this worker's non-empty work-shared loops — the
	// region-local round ids event-trace spans carry. Like epoch it
	// advances identically in every SPMD copy.
	loops uint32
	// round is the region-local round counter behind NextRound.
	round uint32
}

// P returns the team size (the machine's worker count).
func (tc *TeamCtx) P() int { return tc.m.p }

// Worker returns this worker's id in [0, P). Use it to elect one worker
// for result capture; loop bodies receive their worker id directly.
func (tc *TeamCtx) Worker() int { return tc.w }

// Metrics returns the machine's live-metrics recorder, or nil when metrics
// are off.
func (tc *TeamCtx) Metrics() *metrics.Recorder { return tc.m.rec }

// NextRound advances this worker's copy of the region round counter and
// returns it (1, 2, 3, ...). All workers execute the same round sequence
// (SPMD discipline), so their counters agree without synchronization;
// worker 0 alone counts the rounds in the metrics.
func (tc *TeamCtx) NextRound() uint32 {
	tc.round++
	if tc.w == 0 {
		tc.m.rec.AddRounds(1)
	}
	return tc.round
}

// Barrier synchronizes the team: no worker proceeds until all have
// arrived. It is the in-region synchronization point the paper requires
// between a concurrent-write round and its dependent reads.
func (tc *TeamCtx) Barrier() {
	m := tc.m
	if m.p == 1 {
		return
	}
	// Metrics on: deliver the chaos barrier jitter (a nil injector is a
	// no-op), then time the wait and credit it to this worker's shard; the
	// machine's region-wall accounting subtracts it from busy time. The
	// event-trace barrier span (nil-buffer no-op when tracing is off)
	// carries the current loop id, so barrier skew lines up with the
	// round whose writes the barrier publishes.
	if m.rec != nil {
		m.chaos.BarrierJitter(tc.w)
		a := m.evt.Worker(tc.w).Begin(evtrace.KindBarrier, tc.loops)
		t0 := time.Now()
		ok := m.teamBar.Wait(tc.w)
		m.rec.Shard(tc.w).AddBarrierWait(time.Since(t0))
		a.End()
		if !ok {
			panic(teamAbort{})
		}
		return
	}
	if !m.teamBar.Wait(tc.w) {
		panic(teamAbort{})
	}
}

// For executes one work-shared PRAM round inside the region: body(i) for
// every i in [0, n), partitioned over the team by the machine's policy,
// with a team barrier before For returns. All workers must call For with
// the same n (SPMD discipline); bodies run concurrently on distinct i.
func (tc *TeamCtx) For(n int, body func(i int)) {
	tc.ForWorker(n, func(i, _ int) { body(i) })
}

// ForWorker is For with the executing worker's id passed to the body, for
// per-worker accumulators.
func (tc *TeamCtx) ForWorker(n int, body func(i, w int)) {
	tc.loop(tc.m.forStep(n, body))
}

// Range executes one work-shared round in block form: this worker's
// contiguous share [lo, hi) of [0, n) is passed once with its id,
// followed by a team barrier. The partitioning is always Block, like
// ParallelRange; a worker with an empty share skips the body.
func (tc *TeamCtx) Range(n int, body func(lo, hi, w int)) {
	tc.loop(stepDesc{n: n, ranged: body})
}

// Bounds executes one work-shared round in block form over caller-supplied
// shard boundaries: this worker receives [bounds[w], bounds[w+1]) once,
// followed by a team barrier — the in-region analogue of
// Machine.ParallelBounds. All workers must pass the same bounds slice (SPMD
// discipline), with len(bounds) == P()+1 and non-decreasing entries; a
// worker with an empty shard goes straight to the barrier.
func (tc *TeamCtx) Bounds(bounds []int, body func(lo, hi, w int)) {
	tc.loop(tc.m.boundsStep(bounds, body))
}

// StealRange executes one work-shared round under work stealing regardless
// of the machine's policy — the in-region analogue of
// Machine.ParallelSteal. The index space [0, n) is cut into chunks seeded
// onto per-worker deques; body receives each chunk this worker claims (its
// own share in ascending order, then whatever it steals), followed by a
// team barrier. All workers must call StealRange with the same n (SPMD
// discipline).
func (tc *TeamCtx) StealRange(n int, body func(lo, hi, w int)) {
	tc.loop(tc.m.stealStep(n, body))
}

// Single executes f on exactly one worker (worker 0) while the others wait
// at the closing team barrier — the in-region replacement for caller-side
// serial sections (OpenMP's `single`). Data f reads must have been
// published by a preceding loop or Barrier; f's writes are visible to the
// whole team after Single returns.
func (tc *TeamCtx) Single(f func()) {
	if tc.w == 0 {
		f()
	}
	tc.Barrier()
}

// loop is every team loop: a non-empty loop takes its round id, readies
// the shared cursor or stealer through the ticket, and runs this worker's
// share through the pool steps' dispatch under an event-trace round span;
// every loop then closes with the team barrier. Worker 0 times the whole
// loop as the round's wall time.
func (tc *TeamCtx) loop(st stepDesc) {
	m := tc.m
	var t0 time.Time
	if m.rec != nil && tc.w == 0 {
		t0 = time.Now()
	}
	if st.n > 0 {
		tc.loops++
		a := m.evt.Worker(tc.w).Begin(evtrace.KindRound, tc.loops)
		st.seq = tc.loops
		tc.ticket(st)
		m.dispatch(st, tc.w)
		a.End()
	}
	tc.Barrier()
	if m.rec != nil && tc.w == 0 {
		m.rec.AddRoundTime(time.Since(t0))
	}
}

// ticket resets the machine's shared cursor or stealer for loop st, when
// it uses one. Exactly one worker per loop wins the reset ticket (a CAS
// from epoch-1 to epoch), performs the reset, and publishes it through the
// ready word; the rest yield until the reset is visible. The winner is the
// first worker to reach the loop and runs no user code before publishing,
// so the wait is short and needs no abort check. All claims of the
// previous loop happened before its closing barrier, which every worker
// passed before entering this loop, so the reset can never race a stale
// claim.
func (tc *TeamCtx) ticket(st stepDesc) {
	if st.cursor == nil && st.stealer == nil {
		return
	}
	m := tc.m
	tc.epoch++
	if m.teamTicket.CompareAndSwap(tc.epoch-1, tc.epoch) {
		m.reset(st)
		m.teamReady.Store(tc.epoch)
		return
	}
	for m.teamReady.Load() < tc.epoch {
		runtime.Gosched()
	}
}

// Team runs body once on all P workers simultaneously — one persistent
// parallel region, the shape of the paper's OpenMP kernels. The caller
// runs body as worker 0 and returns once every worker has returned from
// body. Rounds inside the region are expressed with the TeamCtx loops
// (implicit team barrier each) and serial sections with Single, so a
// whole kernel pays region entry once instead of two pool barrier phases
// per round.
//
// If a worker's body panics, the region is aborted: the remaining workers
// bail at their next team barrier, the panic is re-raised on the caller,
// and the machine remains usable. ParallelFor and Team calls may be freely
// interleaved on one machine.
func (m *Machine) Team(body func(tc *TeamCtx)) {
	m.mustBeOpen()
	// Fresh region: worker-local epochs restart at 0, so rewind the ticket
	// words. The start barrier publishes this to the helpers.
	m.teamTicket.Store(0)
	m.teamReady.Store(0)
	if m.p == 1 {
		// Single worker: the caller is the team. Barriers are no-ops.
		m.inline(evtrace.KindRegion, func() { body(&TeamCtx{m: m}) })
		return
	}
	m.runStep(stepDesc{team: body, seq: m.nextSeq()})
}

// runTeamShare executes worker id's copy of the region body, capturing
// panics so a failing body cannot deadlock the pool: a user panic is
// recorded and aborts the team barrier (peers bail at it with a teamAbort,
// which is swallowed here).
func (m *Machine) runTeamShare(st stepDesc, id int) {
	defer func() {
		if pv := recover(); pv != nil {
			if _, bail := pv.(teamAbort); !bail {
				st.panics[id] = pv
				m.teamBar.Abort()
			}
		}
	}()
	st.team(&TeamCtx{m: m, w: id})
}

// Exec selects how a kernel drives the machine: one pool round per
// ParallelFor call, one persistent team region per kernel, or a serial
// counting replay (trace).
type Exec int

const (
	// ExecPool re-enters the worker pool from the caller each round
	// (ParallelFor / ParallelRange).
	ExecPool Exec = iota
	// ExecTeam runs the whole kernel inside one Team region.
	ExecTeam
	// ExecTrace replays the kernel serially with P logical workers,
	// counting steps, barriers, and per-worker iterations instead of
	// using the pool (see internal/core/exec). It is an observability
	// mode, not a timed one, so Execs excludes it.
	ExecTrace
)

// Execs lists the timed execution modes in presentation order. ExecTrace
// is deliberately absent: its serial replay measures structure, not time.
var Execs = []Exec{ExecPool, ExecTeam}

// String names the execution mode as the -exec flag spells it ("pool",
// "team", "trace").
func (e Exec) String() string {
	switch e {
	case ExecPool:
		return "pool"
	case ExecTeam:
		return "team"
	case ExecTrace:
		return "trace"
	default:
		return "unknown-exec"
	}
}

// ParseExec converts an execution-mode name (as produced by String) back
// to an Exec. It accepts every backend, including the untimed "trace".
func ParseExec(s string) (Exec, bool) {
	for _, e := range []Exec{ExecPool, ExecTeam, ExecTrace} {
		if e.String() == s {
			return e, true
		}
	}
	return 0, false
}
