// Package machine executes PRAM algorithm steps on a fixed pool of physical
// workers.
//
// A PRAM algorithm is a sequence of rounds, each applying one operation per
// virtual processor to a shared memory, in lock-step. Following the paper
// (Section 4, building on Ghanim et al.'s ICE results), lock-step semantics
// are recovered on an asynchronous shared-memory machine by (1) work-sharing
// each round's virtual processors over the physical workers and (2) placing
// a synchronization barrier between a round and anything that depends on it.
// Machine provides exactly that: ParallelFor runs one round — n virtual
// processors over P workers with an implicit barrier at the end — and an
// internal monotone round counter supplies the round ids consumed by the cw
// package's CAS-LT cells.
//
// The pool is persistent and the caller is worker 0: New starts P-1 helper
// goroutines (workers 1..P-1) parked on a reusable P-party barrier, and
// every round is a fork/join in which the caller releases the helpers,
// runs worker 0's share itself, and joins them. A round therefore costs two
// barrier phases rather than P goroutine spawns, with exactly P goroutines
// spinning on P workers — an OpenMP parallel region with an active wait
// policy (the configuration the paper measures), whose encountering thread
// is thread 0 of the team. A P=1 machine starts no goroutine at all.
//
// Two execution modes drive the pool. ParallelFor/ParallelRange run one
// round per call, re-entering the pool from the caller each time. Team runs
// a whole kernel inside one persistent parallel region — the exact shape of
// the paper's OpenMP listings, at one team barrier per round instead of two
// pool phases — see team.go. Both modes share one loop dispatch (a worker's
// static share, cursor claims or stolen chunks) and one barrier family:
// WithBarrier picks the construction for the pool's fork/join phases and
// the team's in-region barrier alike.
package machine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"crcwpram/internal/barrier"
	"crcwpram/internal/core/chaos"
	"crcwpram/internal/core/metrics"
	evtrace "crcwpram/internal/core/trace"
	"crcwpram/internal/sched"
)

// Machine is a fixed pool of P workers executing PRAM rounds. Create with
// New, release with Close. A Machine is driven by one caller goroutine at a
// time, which is worker 0 of every round; workers 1..P-1 are pooled
// goroutines.
type Machine struct {
	p       int
	policy  sched.Policy
	chunk   int
	barKind barrier.Kind
	bar     barrier.Barrier

	// step is the work descriptor for the round in flight. It is written
	// by the caller before the start barrier and read by workers after it;
	// the barrier provides the happens-before edge.
	step stepDesc

	// cur is the one pre-allocated cursor shared by all dynamic/guided
	// loops, pool rounds and team loops alike. Like steal below it is
	// reset per loop, never per machine.
	cur *sched.Cursor

	// Team-region state (team.go): the in-region barrier, which a
	// panicking team body aborts (runStep then replaces it), and the
	// ticket/ready words of the per-loop cursor/stealer reset protocol.
	teamBar    barrier.Barrier
	teamTicket atomic.Uint64
	teamReady  atomic.Uint64

	// steal is the one pre-allocated work-stealing deque set shared by all
	// stealing loops (the sched.Stealing policy, ParallelSteal and
	// TeamCtx.StealRange). Like cur it is reset per loop, never per
	// machine: caller-side under the pool backend, via the team ticket
	// protocol in-region.
	steal *sched.Stealer

	// rec is the live-metrics recorder, nil unless WithMetrics was given.
	// Every instrumented path in the machine hangs off a single
	// `m.rec != nil` branch, so the metrics-off hot path is unchanged.
	rec *metrics.Recorder

	// chaos is the schedule-perturbation injector, nil unless WithChaos
	// was given. The exec backends wrap their contexts around it and the
	// recorder drives it from the claim sites (it implies metrics).
	chaos *chaos.Injector

	// evt is the event-trace flight recorder, nil unless WithEventTrace
	// was given. Like chaos it implies metrics: its span emission lives
	// inside the instrumented step path behind the one `m.rec != nil`
	// branch, so the tracing-off hot path is the metrics-off hot path.
	evt *evtrace.Recorder
	// stepSeq numbers the machine's pool steps and team regions for span
	// round ids; advanced only when evt is attached.
	stepSeq uint32

	exec   Exec
	round  uint32
	closed bool
}

type stepDesc struct {
	n      int
	seq    uint32 // step sequence number for event-trace span round ids
	body   func(i, w int)
	ranged func(lo, hi, w int)
	bounds []int // optional shard boundaries for ranged (ParallelBounds)
	cursor *sched.Cursor
	// stealer, when non-nil, makes workers drain the work-stealing deques
	// instead of a static share or cursor: body (if set) runs per index,
	// otherwise ranged runs per claimed chunk.
	stealer *sched.Stealer
	team    func(tc *TeamCtx)
	quit    bool
	panics  []any // one slot per worker, pre-sized; nil = no panic
}

// Option configures a Machine.
type Option func(*Machine)

// WithPolicy selects the loop partitioning policy (default sched.Block).
func WithPolicy(p sched.Policy) Option { return func(m *Machine) { m.policy = p } }

// WithChunk sets the chunk size for dynamic/guided policies (default
// sched.DefaultChunk).
func WithChunk(c int) Option { return func(m *Machine) { m.chunk = c } }

// WithBarrier selects the barrier construction (default barrier.KindSense)
// for both the pool's fork/join phases and the team's in-region barrier.
func WithBarrier(k barrier.Kind) Option { return func(m *Machine) { m.barKind = k } }

// WithExec selects the machine's default execution backend (default
// ExecPool). Kernels dispatched without an explicit backend — the plain
// Run entry points — use this choice via Exec().
func WithExec(e Exec) Option { return func(m *Machine) { m.exec = e } }

// WithMetrics enables live contention metrics: the machine allocates a
// per-worker-sharded metrics.Recorder that the pool and team backends and
// the instrumented kernels feed while running. Off by default; when off,
// Metrics() returns nil and the hot paths keep their uninstrumented cost
// (BenchmarkMetricsOffOverhead pins this). Probed runs and timed runs
// should be separate: see metrics.Recorder.EnableProbe.
func WithMetrics() Option { return func(m *Machine) { m.rec = metrics.NewRecorder(m.p) } }

// WithEventTrace attaches an event-trace flight recorder (see the
// evtrace package at internal/core/trace): the pool and team backends
// emit per-worker round, region, barrier-wait, and steal events into its
// ring buffers, and every recorded claim feeds its sampled claim stream
// through the metrics claim hook. Event tracing implies metrics — a
// machine built with WithEventTrace allocates a recorder even without
// WithMetrics — so the tracing-off hot path keeps the metrics
// discipline's single branch (BenchmarkEventTraceOffOverhead pins it).
// The recorder's worker count must match the machine's. Tracing only
// observes; kernel.DifferentialEventTrace proves traced runs stay
// byte-identical to untraced ones.
func WithEventTrace(r *evtrace.Recorder) Option { return func(m *Machine) { m.evt = r } }

// WithChaos attaches a deterministic schedule-perturbation injector: the
// pool and team execution backends deliver its faults at their
// instrumented yield points (loop iterations, barrier arrivals, steal
// chunk deliveries), and every recorded claim site drives its loss
// perturbations through the metrics claim hook. Chaos implies metrics —
// a machine built with WithChaos allocates a recorder even without
// WithMetrics — because the claim sites are the metrics layer's. Faults
// only burn time and yield, so a perturbed run of a deterministic kernel
// must produce byte-identical results; kernel.DifferentialChaos enforces
// that across the whole registry. Never time a chaos run.
func WithChaos(inj *chaos.Injector) Option { return func(m *Machine) { m.chaos = inj } }

// New returns a Machine with p workers. p must be >= 1. The caller owns the
// machine and must Close it to release the workers.
func New(p int, opts ...Option) *Machine {
	if p < 1 {
		panic("machine: p must be >= 1")
	}
	m := &Machine{
		p:       p,
		policy:  sched.Block,
		chunk:   sched.DefaultChunk,
		barKind: barrier.KindSense,
	}
	for _, o := range opts {
		o(m)
	}
	if m.evt != nil && m.evt.P() != p {
		panic(fmt.Sprintf("machine: event-trace recorder has %d workers, machine has %d", m.evt.P(), p))
	}
	if m.chaos != nil || m.evt != nil {
		// Chaos and event tracing imply metrics: the claim sites that feed
		// the injector's loss faults, the invariant checker, and the trace
		// recorder's sampled claim stream all live on the recorder.
		if m.rec == nil {
			m.rec = metrics.NewRecorder(p)
		}
		var hooks metrics.ClaimHooks
		if m.chaos != nil {
			hooks = append(hooks, m.chaos)
		}
		if m.evt != nil {
			hooks = append(hooks, m.evt)
			// Fired chaos faults render as timeline spans.
			m.chaos.SetSink(m.evt)
		}
		if len(hooks) == 1 {
			m.rec.SetClaimHook(hooks[0])
		} else {
			m.rec.SetClaimHook(hooks)
		}
	}
	// The caller is worker 0: it runs its own share of every step, so both
	// barriers have p parties and only workers 1..p-1 get a goroutine.
	m.bar = barrier.New(m.barKind, p)
	m.teamBar = barrier.New(m.barKind, p)
	m.cur = sched.NewCursor(m.policy, 0, p, m.chunk)
	m.steal = sched.NewStealer(p)
	m.step.panics = make([]any, p)
	for w := 1; w < p; w++ {
		go m.worker(w)
	}
	return m
}

// P returns the number of physical workers.
func (m *Machine) P() int { return m.p }

// Policy returns the partitioning policy.
func (m *Machine) Policy() sched.Policy { return m.policy }

// Chunk returns the configured chunk size (WithChunk, default
// sched.DefaultChunk). The trace backend needs it to replay the stealing
// policy's chunk geometry deterministically.
func (m *Machine) Chunk() int { return m.chunk }

// Exec returns the default execution backend chosen with WithExec.
func (m *Machine) Exec() Exec { return m.exec }

// Metrics returns the machine's live-metrics recorder, or nil when the
// machine was created without WithMetrics. The nil propagates through the
// recorder's nil-safe methods, so callers thread it unconditionally.
func (m *Machine) Metrics() *metrics.Recorder { return m.rec }

// Chaos returns the machine's schedule-perturbation injector, or nil when
// the machine was created without WithChaos. The exec backends consult it
// when building their contexts.
func (m *Machine) Chaos() *chaos.Injector { return m.chaos }

// Events returns the machine's event-trace flight recorder, or nil when
// the machine was created without WithEventTrace. The nil propagates
// through the recorder's nil-safe methods, so callers thread it
// unconditionally.
func (m *Machine) Events() *evtrace.Recorder { return m.evt }

// nextSeq advances the machine's step sequence for event-trace span
// round ids. It stays zero with tracing off: the ids only label spans.
func (m *Machine) nextSeq() uint32 {
	if m.evt == nil {
		return 0
	}
	m.stepSeq++
	return m.stepSeq
}

// Snapshot aggregates the metrics recorder at a synchronization point (no
// round or region in flight). It returns a zero Snapshot when metrics are
// off.
func (m *Machine) Snapshot() metrics.Snapshot { return m.rec.Snapshot() }

// Round returns the current round id. Round ids start at 0 and advance by
// NextRound (or by kernels using their own loop counters).
func (m *Machine) Round() uint32 { return m.round }

// NextRound advances the machine's round counter and returns the new id,
// which is always >= 1 and therefore valid for cw.Cell claims.
func (m *Machine) NextRound() uint32 {
	m.round++
	return m.round
}

// ResetRound rewinds the round counter to 0, for reusing a machine across
// independent kernel executions whose cw arrays have been Reset.
func (m *Machine) ResetRound() { m.round = 0 }

// Close shuts the worker pool down. The machine must not be used after
// Close.
func (m *Machine) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.step = stepDesc{quit: true}
	m.bar.Wait(0) // start phase: release the helpers into the quit branch
}

// ParallelFor executes one PRAM round: body(i) for every i in [0, n),
// work-shared over the P workers, with an implicit barrier before
// ParallelFor returns. The barrier is the synchronization point the paper
// requires between a concurrent write and its dependent reads.
//
// body must be safe for concurrent invocation on distinct i.
func (m *Machine) ParallelFor(n int, body func(i int)) {
	m.ParallelForWorker(n, func(i, _ int) { body(i) })
}

// ParallelForWorker is ParallelFor with the executing worker's id (in
// [0, P())) passed to the body, for per-worker accumulators.
func (m *Machine) ParallelForWorker(n int, body func(i, w int)) {
	m.mustBeOpen()
	if n > 0 {
		m.pool(m.forStep(n, body))
	}
}

// ParallelSteal executes one PRAM round under work stealing regardless of
// the machine's configured policy: the index space [0, n) is cut into
// chunks seeded onto per-worker deques (each worker's block share), and
// body receives claimed chunks [lo, hi) with the claiming worker's id —
// owners in ascending index order, thieves wherever they struck. It is the
// entry point for irregular loops (skewed per-index cost) whose kernels
// opt into stealing explicitly; regular loops should keep ParallelRange /
// ParallelBounds. Implicit barrier on return, like every Parallel* round.
func (m *Machine) ParallelSteal(n int, body func(lo, hi, w int)) {
	m.mustBeOpen()
	if n > 0 {
		m.pool(m.stealStep(n, body))
	}
}

// ParallelRange executes one PRAM round in block form: each worker receives
// its contiguous share [lo, hi) once. It is the natural shape for
// re-initialization passes (e.g. the gatekeeper method's per-round reset)
// and for per-worker reductions. The partitioning policy is always Block.
func (m *Machine) ParallelRange(n int, body func(lo, hi, w int)) {
	m.mustBeOpen()
	if n > 0 {
		m.pool(stepDesc{n: n, ranged: body})
	}
}

// ParallelBounds executes one PRAM round in block form over caller-supplied
// shard boundaries: worker w receives the contiguous range
// [bounds[w], bounds[w+1]) once. It is ParallelRange with the boundary
// placement chosen by the caller — typically the equal-arc vertex shards of
// graph.ArcBounds — so loops whose per-index cost is skewed can balance by
// work instead of count. len(bounds) must be P()+1 and bounds must be
// non-decreasing; workers with an empty shard skip the body.
func (m *Machine) ParallelBounds(bounds []int, body func(lo, hi, w int)) {
	m.mustBeOpen()
	if st := m.boundsStep(bounds, body); st.n > 0 {
		m.pool(st)
	}
}

// ParallelFor2D executes body(i, j) for every pair in [0, n1) x [0, n2),
// collapsing the two loops into one index space exactly like the paper's
// `#pragma omp for collapse(2)` in the maximum kernel (Figure 4).
func (m *Machine) ParallelFor2D(n1, n2 int, body func(i, j int)) {
	if n1 <= 0 || n2 <= 0 {
		return
	}
	total := n1 * n2
	if total/n1 != n2 {
		panic(fmt.Sprintf("machine: ParallelFor2D overflow: %d x %d", n1, n2))
	}
	m.ParallelFor(total, func(k int) {
		body(k/n2, k%n2)
	})
}

// mustBeOpen panics if the machine has been closed.
func (m *Machine) mustBeOpen() {
	if m.closed {
		panic("machine: use after Close")
	}
}

// forStep describes a per-index loop over [0, n) under the machine's
// policy: dynamic and guided loops claim from the shared cursor, stealing
// loops drain the shared stealer (at P=1, as in stealStep, there is none
// and the loop runs in block order). Neither is reset here: pool resets
// them caller-side, a team loop through its ticket.
func (m *Machine) forStep(n int, body func(i, w int)) stepDesc {
	st := stepDesc{n: n, body: body}
	switch m.policy {
	case sched.Dynamic, sched.Guided:
		st.cursor = m.cur
	case sched.Stealing:
		if m.p > 1 {
			st.stealer = m.steal
		}
	}
	return st
}

// stealStep describes a chunked stealing loop over [0, n). At P=1 there is
// no one to steal from, so it is the whole range in one body call.
func (m *Machine) stealStep(n int, body func(lo, hi, w int)) stepDesc {
	st := stepDesc{n: n, ranged: body}
	if m.p > 1 {
		st.stealer = m.steal
	}
	return st
}

// boundsStep describes a block loop over caller-supplied shard boundaries;
// its n is the covered span, so an all-empty loop has n == 0.
func (m *Machine) boundsStep(bounds []int, body func(lo, hi, w int)) stepDesc {
	if len(bounds) != m.p+1 {
		panic(fmt.Sprintf("machine: %d bounds for %d workers", len(bounds), m.p))
	}
	return stepDesc{n: max(bounds[m.p]-bounds[0], 0), ranged: body, bounds: bounds}
}

// reset readies st's shared cursor or stealer for a fresh loop. All claims
// of the previous loop happened before its closing barrier, so a reset
// never races a stale claim.
func (m *Machine) reset(st stepDesc) {
	switch {
	case st.stealer != nil:
		st.stealer.Reset(st.n, m.chunk)
	case st.cursor != nil:
		st.cursor.Reset(st.n)
	}
}

// pool runs st as one pool round. The caller is alone between steps, so
// it resets the shared cursor or stealer itself; at P=1 it runs the round
// inline, where the pool would only add barrier latency.
func (m *Machine) pool(st stepDesc) {
	m.reset(st)
	if m.p == 1 {
		m.inline(evtrace.KindRound, func() { m.dispatch(st, 0) })
		return
	}
	st.seq = m.nextSeq()
	m.runStep(st)
}

// inline runs a P=1 machine's round or region f on the caller; with
// metrics on it is worker 0's busy time and an event-trace span of kind.
func (m *Machine) inline(kind evtrace.Kind, f func()) {
	if m.rec == nil {
		f()
		return
	}
	a := m.evt.Worker(0).Begin(kind, m.nextSeq())
	t0 := time.Now()
	f()
	m.rec.Shard(0).AddBusy(time.Since(t0))
	a.End()
}

// runStep publishes st and runs it as worker 0 — release the helpers, run
// the caller's share, join — then re-raises any worker panic.
func (m *Machine) runStep(st stepDesc) {
	st.panics = m.step.panics
	m.step = st
	m.bar.Wait(0) // start phase: helpers pick up m.step
	m.share(st, 0)
	m.reraise()
}

// reraise re-raises the first recorded worker panic on the caller,
// clearing every slot so a multi-worker panic cannot leak into the next
// step. A panicking team region aborted its team barrier, leaving it
// mid-phase, so it is replaced first.
func (m *Machine) reraise() {
	var first any
	for w := 0; w < m.p; w++ {
		if pv := m.step.panics[w]; pv != nil {
			m.step.panics[w] = nil
			if first == nil {
				first = pv
			}
		}
	}
	if first == nil {
		return
	}
	if m.step.team != nil {
		m.teamBar = barrier.New(m.barKind, m.p)
	}
	panic(first)
}

// worker is helper id's dispatch loop (ids 1..P-1; the caller is 0).
func (m *Machine) worker(id int) {
	for {
		m.bar.Wait(id) // start phase
		st := m.step
		if st.quit {
			return
		}
		m.share(st, id)
	}
}

// share runs worker id's share of step st through the end-phase wait —
// the one path for the caller (worker 0) and the helpers alike.
func (m *Machine) share(st stepDesc, id int) {
	// The per-machine metrics enable is this one branch: the entire
	// instrumented step path (busy/barrier timing, pprof round-phase
	// labels) lives behind it, so a machine without WithMetrics runs the
	// path below exactly as before.
	if m.rec != nil {
		m.runStepMetrics(st, id) // includes the end-phase wait
		return
	}
	if st.team != nil {
		m.runTeamShare(st, id)
	} else {
		m.runShare(st, id)
	}
	m.bar.Wait(id) // end phase
}

// runStepMetrics is worker id's instrumented step path. The share runs
// under a pprof "round-phase: work" label with its wall time credited to
// the worker's shard as busy time — minus, for team regions, the in-region
// barrier waits that TeamCtx.Barrier credits separately — and the
// end-phase pool wait runs under "round-phase: barrier-wait" and is
// credited as barrier wait, after the chaos injector's barrier jitter (a
// no-op without WithChaos) delays the arrival. The start-phase wait is
// deliberately not counted: for helpers it measures the caller's serial
// sections between steps, not the round, and worker 0 (the caller) only
// completes it.
//
// The event-trace spans ride the same two phases: the work share becomes
// a per-worker round span (region span for team steps — the in-region
// team loops emit their own nested round spans) and the end-phase wait a
// barrier span. With tracing off the spans are nil-buffer no-ops, so the
// path's enable stays the worker loop's single `m.rec != nil` branch.
func (m *Machine) runStepMetrics(st stepDesc, id int) {
	sh := m.rec.Shard(id)
	eb := m.evt.Worker(id)
	pprof.Do(context.Background(), pprof.Labels("round-phase", "work"), func(context.Context) {
		kind := evtrace.KindRound
		if st.team != nil {
			kind = evtrace.KindRegion
		}
		a := eb.Begin(kind, st.seq)
		b0 := sh.BarrierWaitTotal()
		t0 := time.Now()
		if st.team != nil {
			m.runTeamShare(st, id)
		} else {
			m.runShare(st, id)
		}
		sh.AddBusy(time.Since(t0) - (sh.BarrierWaitTotal() - b0))
		a.End()
	})
	pprof.Do(context.Background(), pprof.Labels("round-phase", "barrier-wait"), func(context.Context) {
		m.chaos.BarrierJitter(id)
		a := eb.Begin(evtrace.KindBarrier, st.seq)
		t0 := time.Now()
		m.bar.Wait(id) // end phase
		sh.AddBarrierWait(time.Since(t0))
		a.End()
	})
	// Every worker pushes its barrier span after the end phase has
	// released the others, so with tracing on one more phase orders all
	// those ring writes before the caller returns and may Drain.
	if m.evt != nil {
		m.bar.Wait(id)
	}
}

// runShare executes worker id's share of the step, capturing panics so a
// failing body cannot deadlock the pool at the end barrier.
func (m *Machine) runShare(st stepDesc, id int) {
	defer func() {
		if pv := recover(); pv != nil {
			st.panics[id] = pv
		}
	}()
	m.dispatch(st, id)
}

// dispatch runs worker id's share of loop st — its stolen chunks, its
// static share or its cursor claims — for pool steps and team loops alike.
// It does not recover: a pool step recovers in runShare, a team region
// around the whole body.
func (m *Machine) dispatch(st stepDesc, id int) {
	if st.stealer != nil {
		var c sched.StealCounts
		if st.body != nil {
			c = st.stealer.Run(id, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					st.body(i, id)
				}
			})
		} else {
			c = st.stealer.Run(id, func(lo, hi int) { st.ranged(lo, hi, id) })
		}
		m.rec.Shard(id).AddSteal(c.Local, c.Steals, c.Fails)
		m.evt.Worker(id).Point(evtrace.KindSteal, st.seq, evtrace.PackSteal(c.Local, c.Steals, c.Fails))
		return
	}
	if st.ranged != nil {
		var lo, hi int
		if st.bounds != nil {
			lo, hi = st.bounds[id], st.bounds[id+1]
		} else {
			lo, hi = sched.BlockRange(st.n, m.p, id)
		}
		if lo < hi {
			st.ranged(lo, hi, id)
		}
		return
	}
	sched.For(m.policy, st.cursor, st.n, m.p, id, func(i int) {
		st.body(i, id)
	})
}
