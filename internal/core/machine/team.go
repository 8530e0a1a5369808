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
// / ForWorker / Range (work-shared loop ending in a team barrier), Single
// (one worker executes, the rest wait), and Barrier — mirror `omp for`,
// `omp single` and `#pragma omp barrier`. Per empty round the fixed cost
// drops from two P-party phases plus step setup to one P-party phase.
//
// A team body is SPMD code: every worker executes the same statements on
// the same shared state, so control flow that feeds a team primitive
// (loop trip counts, the n passed to For/Range, break decisions) must be
// computed identically by all workers — either from worker-local
// deterministic state or from shared state read after a barrier. TeamFlag
// packages the standard convergence-flag pattern race-free.
package machine

import (
	"runtime"
	"sync/atomic"
	"time"

	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/sched"
)

// teamSpins bounds busy-waiting in team-internal spin loops before
// yielding, mirroring the barrier package's spin-then-yield policy.
const teamSpins = 128

// teamAbort is the sentinel panic a worker raises to bail out of a team
// body after another worker's panic poisoned the region. It is recovered
// by the team driver and never recorded as a user panic.
type teamAbort struct{}

// teamBarrier is a sense-reversing barrier for the P workers of a team
// region, the caller among them as worker 0. Unlike barrier.Sense it is
// abortable: when a worker panics inside a team body it can never arrive,
// so waiters poll the machine's abort flag and bail out instead of
// deadlocking. After an aborted step the internal state is mid-phase
// garbage; runStep replaces the barrier wholesale.
type teamBarrier struct {
	parties int32
	count   atomic.Int32
	sense   atomic.Uint32
}

func newTeamBarrier(parties int) *teamBarrier {
	b := &teamBarrier{parties: int32(parties)}
	b.count.Store(int32(parties))
	return b
}

// wait blocks until all workers arrive, returning false if the team was
// aborted while waiting.
func (b *teamBarrier) wait(abort *atomic.Bool) bool {
	local := b.sense.Load() ^ 1
	if b.count.Add(-1) == 0 {
		b.count.Store(b.parties)
		b.sense.Store(local)
		return true
	}
	for spins := 0; b.sense.Load() != local; spins++ {
		if spins > teamSpins {
			// Abort is the cold path: check it only once spinning has
			// clearly stalled, keeping the hot release loop load-only.
			if abort.Load() {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// TeamCtx is one worker's view of a team region. It is valid only inside
// the body passed to Machine.Team and must not leak to other goroutines.
type TeamCtx struct {
	m *Machine
	// W is this worker's id in [0, P). Use it for worker-local scratch
	// that lives across rounds without per-round closure captures.
	W int
	// epoch counts this worker's dynamic/guided work-shared loops, keying
	// the shared cursor's reset protocol. All workers execute the same
	// loop sequence, so their epochs agree.
	epoch uint64
	// loops counts this worker's work-shared loops of every policy — the
	// region-local round ids event-trace spans carry. Like epoch it
	// advances identically in every SPMD copy.
	loops uint32
}

// beginLoop advances the worker's loop counter and opens the loop's
// event-trace round span — a nil-buffer no-op when tracing is off.
func (tc *TeamCtx) beginLoop() evtrace.Active {
	tc.loops++
	return tc.m.evt.Worker(tc.W).Begin(evtrace.KindRound, tc.loops)
}

// P returns the team size (the machine's worker count).
func (tc *TeamCtx) P() int { return tc.m.p }

// Barrier synchronizes the team: no worker proceeds until all have
// arrived. It is the in-region synchronization point the paper requires
// between a concurrent-write round and its dependent reads.
func (tc *TeamCtx) Barrier() {
	if tc.m.p == 1 {
		return
	}
	// Metrics on: time the wait and credit it to this worker's shard; the
	// machine's region-wall accounting subtracts it from busy time. The
	// event-trace barrier span (nil-buffer no-op when tracing is off)
	// carries the current loop id, so barrier skew lines up with the
	// round whose writes the barrier publishes.
	if tc.m.rec != nil {
		a := tc.m.evt.Worker(tc.W).Begin(evtrace.KindBarrier, tc.loops)
		t0 := time.Now()
		ok := tc.m.teamBar.wait(&tc.m.teamAborted)
		tc.m.rec.Shard(tc.W).AddBarrierWait(time.Since(t0))
		a.End()
		if !ok {
			panic(teamAbort{})
		}
		return
	}
	if !tc.m.teamBar.wait(&tc.m.teamAborted) {
		panic(teamAbort{})
	}
}

// For executes one work-shared PRAM round inside the region: body(i) for
// every i in [0, n), partitioned over the team by the machine's policy,
// with a team barrier before For returns. All workers must call For with
// the same n (SPMD discipline); bodies run concurrently on distinct i.
func (tc *TeamCtx) For(n int, body func(i int)) {
	m := tc.m
	if m.p == 1 {
		if n > 0 {
			a := tc.beginLoop()
			m.runSerial(n, func(i, _ int) { body(i) })
			a.End()
		}
		return
	}
	if n > 0 {
		a := tc.beginLoop()
		if m.policy == sched.Stealing {
			st := tc.loopStealer(n)
			c := st.Run(tc.W, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					body(i)
				}
			})
			m.rec.Shard(tc.W).AddSteal(c.Local, c.Steals, c.Fails)
			m.evt.Worker(tc.W).Point(evtrace.KindSteal, tc.loops, evtrace.PackSteal(c.Local, c.Steals, c.Fails))
		} else {
			sched.For(m.policy, tc.loopCursor(n), n, m.p, tc.W, body)
		}
		a.End()
	}
	tc.Barrier()
}

// ForWorker is For with the executing worker's id passed to the body, for
// per-worker accumulators.
func (tc *TeamCtx) ForWorker(n int, body func(i, w int)) {
	w := tc.W
	tc.For(n, func(i int) { body(i, w) })
}

// Range executes one work-shared round in block form: this worker's
// contiguous share [lo, hi) of [0, n) is passed once, followed by a team
// barrier. The partitioning is always Block, like ParallelRange. The
// worker id is available as tc.W.
func (tc *TeamCtx) Range(n int, body func(lo, hi int)) {
	m := tc.m
	if m.p == 1 {
		if n > 0 {
			a := tc.beginLoop()
			body(0, n)
			a.End()
		}
		return
	}
	if n > 0 {
		a := tc.beginLoop()
		lo, hi := sched.BlockRange(n, m.p, tc.W)
		if lo < hi {
			body(lo, hi)
		}
		a.End()
	}
	tc.Barrier()
}

// Bounds executes one work-shared round in block form over caller-supplied
// shard boundaries: this worker receives [bounds[tc.W], bounds[tc.W+1])
// once, followed by a team barrier — the in-region analogue of
// Machine.ParallelBounds. All workers must pass the same bounds slice (SPMD
// discipline), with len(bounds) == P()+1 and non-decreasing entries; a
// worker with an empty shard goes straight to the barrier.
func (tc *TeamCtx) Bounds(bounds []int, body func(lo, hi int)) {
	m := tc.m
	if len(bounds) != m.p+1 {
		panic("machine: TeamCtx.Bounds: bounds length must be P()+1")
	}
	if m.p == 1 {
		if bounds[0] < bounds[1] {
			a := tc.beginLoop()
			body(bounds[0], bounds[1])
			a.End()
		}
		return
	}
	a := tc.beginLoop()
	if lo, hi := bounds[tc.W], bounds[tc.W+1]; lo < hi {
		body(lo, hi)
	}
	a.End()
	tc.Barrier()
}

// Steal executes one work-shared round under work stealing regardless of
// the machine's policy — the in-region analogue of Machine.ParallelSteal.
// The index space [0, n) is cut into chunks seeded onto per-worker deques;
// body receives each chunk this worker claims (its own share in ascending
// order, then whatever it steals), followed by a team barrier. All workers
// must call Steal with the same n (SPMD discipline).
func (tc *TeamCtx) Steal(n int, body func(lo, hi int)) {
	m := tc.m
	if m.p == 1 {
		if n > 0 {
			a := tc.beginLoop()
			body(0, n)
			a.End()
		}
		return
	}
	if n > 0 {
		a := tc.beginLoop()
		st := tc.loopStealer(n)
		c := st.Run(tc.W, body)
		m.rec.Shard(tc.W).AddSteal(c.Local, c.Steals, c.Fails)
		m.evt.Worker(tc.W).Point(evtrace.KindSteal, tc.loops, evtrace.PackSteal(c.Local, c.Steals, c.Fails))
		a.End()
	}
	tc.Barrier()
}

// Single executes f on exactly one worker (worker 0) while the others wait
// at the closing team barrier — the in-region replacement for caller-side
// serial sections (OpenMP's `single`). Data f reads must have been
// published by a preceding For/Range/Barrier; f's writes are visible to
// the whole team after Single returns.
func (tc *TeamCtx) Single(f func()) {
	if tc.m.p == 1 {
		f()
		return
	}
	if tc.W == 0 {
		f()
	}
	tc.Barrier()
}

// loopCursor returns the machine's pre-allocated shared cursor, reset for
// a fresh dynamic/guided loop over [0, n), or nil for static policies.
// Exactly one worker per loop instance wins the reset ticket (a CAS from
// epoch-1 to epoch), performs the reset, and publishes it through the
// ready word; the rest spin until the reset is visible. All claims of the
// previous loop happened before its closing barrier, which every worker
// passed before entering this loop, so the reset can never race a stale
// claim.
func (tc *TeamCtx) loopCursor(n int) *sched.Cursor {
	m := tc.m
	if m.policy != sched.Dynamic && m.policy != sched.Guided {
		return nil
	}
	tc.epoch++
	e := tc.epoch
	if m.teamTicket.CompareAndSwap(e-1, e) {
		m.cur.Reset(n)
		m.teamReady.Store(e)
	} else {
		for spins := 0; m.teamReady.Load() < e; spins++ {
			if spins > teamSpins {
				if m.teamAborted.Load() {
					panic(teamAbort{})
				}
				runtime.Gosched()
			}
		}
	}
	return m.cur
}

// loopStealer is loopCursor's work-stealing twin: exactly one worker per
// stealing loop wins the reset ticket, seeds the machine's stealer for
// [0, n), and publishes it through the ready word. It shares the epoch
// sequence with loopCursor — a worker has one loop counter, and all
// workers execute the same loop sequence, so the ticket words stay
// consistent however cursor and stealing loops interleave.
func (tc *TeamCtx) loopStealer(n int) *sched.Stealer {
	m := tc.m
	tc.epoch++
	e := tc.epoch
	if m.teamTicket.CompareAndSwap(e-1, e) {
		m.steal.Reset(n, m.chunk)
		m.teamReady.Store(e)
	} else {
		for spins := 0; m.teamReady.Load() < e; spins++ {
			if spins > teamSpins {
				if m.teamAborted.Load() {
					panic(teamAbort{})
				}
				runtime.Gosched()
			}
		}
	}
	return m.steal
}

// Team runs body once on all P workers simultaneously — one persistent
// parallel region, the shape of the paper's OpenMP kernels. The caller
// runs body as worker 0 and returns once every worker has returned from
// body. Rounds inside the region are expressed with tc.For/tc.Range
// (implicit team barrier each) and serial sections with tc.Single, so a
// whole kernel pays region entry once instead of two pool barrier phases
// per round.
//
// If a worker's body panics, the region is aborted: the remaining workers
// bail at their next team synchronization point, the panic is re-raised on
// the caller, and the machine remains usable. ParallelFor and Team calls
// may be freely interleaved on one machine.
func (m *Machine) Team(body func(tc *TeamCtx)) {
	if m.closed {
		panic("machine: use after Close")
	}
	if m.p == 1 {
		// Single worker: the caller is the team. Barriers are no-ops.
		m.inline(evtrace.KindRegion, func() { body(&TeamCtx{m: m}) })
		return
	}
	// Fresh region: worker-local epochs restart at 0, so rewind the shared
	// cursor protocol words. The start barrier publishes this to workers.
	m.teamTicket.Store(0)
	m.teamReady.Store(0)
	m.step = stepDesc{team: body, seq: m.nextSeq(), panics: m.step.panics}
	m.runStep()
}

// runTeamShare executes worker id's copy of the region body, capturing
// panics so a failing body cannot deadlock the pool: a user panic is
// recorded and poisons the region (peers bail at their next barrier with a
// teamAbort, which is swallowed here).
func (m *Machine) runTeamShare(st stepDesc, id int) {
	defer func() {
		if pv := recover(); pv != nil {
			if _, bail := pv.(teamAbort); !bail {
				st.panics[id] = pv
				m.teamAborted.Store(true)
			}
		}
	}()
	st.team(&TeamCtx{m: m, W: id})
}

// TeamFlag is a rotating convergence flag for team-mode round loops: the
// race-free, barrier-free replacement for the caller-owned atomic that
// pool-mode kernels reset between rounds.
//
// A round loop needs one shared word per round — "did anything change?" —
// that is primed before the round, written during it, and read after it to
// decide termination. Inside one region the priming is the subtle part: a
// worker that primes the flag for round r while a slow peer is still
// reading it for round r-1 would corrupt the peer's break decision. Three
// rotating slots (indexed round mod 3) make the pattern safe with no extra
// barrier, provided each round ends with at least one team barrier and the
// calls follow the round structure:
//
//	Set(r+1, primeValue)  at the top of round r (any or all workers);
//	Set(r,   seenValue)   during round r's work-shared loops;
//	Get(r)                after round r's closing barrier.
//
// Why three slots suffice: slot (r+1)%3 equals slot (r-2)%3, and its last
// reader — Get(r-2) — ran before that worker arrived at round r-1's
// closing barrier, which every worker passes before priming at the top of
// round r. Writes for round r+1 begin only after round r's barrier, after
// all primes. Two slots would put the prime and the previous read in the
// same unsynchronized window; three separates every conflicting pair by a
// barrier. All accesses are atomic, so concurrent primes/sets of the same
// value (the common-CW idiom) are race-detector clean.
type TeamFlag struct {
	slots [3]atomic.Uint32
}

// Set stores v into round r's slot. Safe for concurrent use by all workers
// when they store the same value (prime and progress-mark are both common
// concurrent writes).
func (f *TeamFlag) Set(r, v uint32) { f.slots[r%3].Store(v) }

// Get loads round r's slot. Call it only after round r's closing barrier.
func (f *TeamFlag) Get(r uint32) uint32 { return f.slots[r%3].Load() }

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
