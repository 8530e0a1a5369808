package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/alg/listrank"
	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/core/metrics"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
)

// KernelOpRow reports the claims one concurrent-write method executed over
// one full kernel run, plus the structural shape of that run: the metrics
// shards the kernel's own claim sites feed attribute the atomic traffic,
// the trace backend attributes the rounds and barriers it was spread over.
// Both instruments observe the *same* deterministic replay.
type KernelOpRow struct {
	Kernel   string
	Method   cw.Method
	Attempts uint64 // executed atomic RMWs (wins + losses)
	Wins     uint64
	Losses   uint64
	Skips    uint64 // claims the plain-load pre-check resolved
	Steps    uint64 // work-shared loops in the traced run
	Barriers uint64 // synchronization points in the traced run
}

// Loads returns the plain loads the row's claims executed.
func (r KernelOpRow) Loads() uint64 { return claimLoads(r.Method, r.Skips, r.Attempts) }

// claimLoads derives a method's plain loads from its claim counters: the
// pre-checked methods (CAS-LT, the checked gatekeeper) load once per claim,
// whether the claim was skipped or went on to an RMW; the plain gatekeeper
// goes straight to its fetch-and-add and never loads.
func claimLoads(m cw.Method, skips, attempts uint64) uint64 {
	if m == cw.Gatekeeper {
		return 0
	}
	return skips + attempts
}

// KernelTraceRow is one kernel's structural cost under the trace backend:
// the numbers a timed backend would have to pay for, independent of the
// concurrent-write method (all methods share the round structure).
type KernelTraceRow struct {
	Kernel    string
	P         int
	Steps     uint64
	Barriers  uint64
	Singles   uint64
	Rounds    uint32 // region-local CAS-LT round ids consumed
	IterMax   uint64 // busiest logical worker (unit-cost critical path)
	IterTotal uint64 // summed iterations over all logical workers
}

// kernelOpMethods are the methods whose operation mix the paper's Section 6
// analyses.
var kernelOpMethods = []cw.Method{cw.CASLT, cw.GatekeeperChecked, cw.Gatekeeper}

// traceRow flattens a kernel's TraceStats into a KernelTraceRow.
func traceRow(kernel string, st *exec.TraceStats) KernelTraceRow {
	return KernelTraceRow{
		Kernel:    kernel,
		P:         st.P,
		Steps:     uint64(st.Steps),
		Barriers:  uint64(st.Barriers),
		Singles:   uint64(st.Singles),
		Rounds:    st.Rounds,
		IterMax:   st.MaxIters(),
		IterTotal: st.TotalIters(),
	}
}

// replay prepares and runs one kernel under the trace backend, validates
// the result, and returns the run's trace with the machine's metrics
// snapshot of the run alone (zero when m records no metrics).
func replay(m *machine.Machine, d *kernel.Descriptor, inst kernel.Instance, method cw.Method) (*exec.TraceStats, metrics.Snapshot) {
	s := kernel.Settings{Exec: machine.ExecTrace, Method: method}
	inst.Prepare(s)
	m.Metrics().Reset()
	inst.Run(s)
	if err := inst.Validate(); err != nil {
		panic(fmt.Sprintf("bench: trace replay %s %v: %v", d.Name, method, err))
	}
	st := inst.Trace()
	if st == nil {
		panic("bench: " + d.Name + " ran under the trace backend but recorded no trace")
	}
	return st, m.Snapshot()
}

// countWorkload builds the standard counting-sweep workload for a
// registered kernel: a random graph of the requested size (undirected when
// the kernel demands symmetry), a chain of `vertices` nodes for the EREW
// ranker, or the fixed 512-element list for maxfind (its work is N², so the
// BFS-sized n would swamp the replay for no extra information).
func countWorkload(d *kernel.Descriptor, vertices, edges int, seed int64) kernel.Workload {
	switch d.Input {
	case kernel.InputList:
		const maxfindN = 512
		return kernel.Workload{List: randomList(maxfindN, seed), Seed: uint64(seed)}
	case kernel.InputChain:
		return kernel.Workload{Next: listrank.RandomList(vertices, seed), Seed: uint64(seed)}
	default:
		g := graph.ConnectedRandom(vertices, edges, seed)
		if d.Symmetric {
			g = graph.RandomUndirected(vertices, edges, seed)
		}
		return kernel.Workload{Graph: g, Seed: uint64(seed)}
	}
}

// countCells is the concurrent-write cell count a workload exposes to the
// contention probe: one per vertex or list element, none for the EREW
// chain.
func countCells(d *kernel.Descriptor, w kernel.Workload) int {
	switch d.Input {
	case kernel.InputList:
		return len(w.List)
	case kernel.InputChain:
		return 0
	default:
		return w.Graph.NumVertices()
	}
}

// KernelOpCounts replays every registered kernel that claims cells (all but
// the ContentionNone and EREW classes) under the trace backend on a metrics
// machine, once per supported Section-6 method, and reports the claims the
// kernel's own Run executed — the whole-kernel extension of the single-cell
// Section 6 experiment — alongside the step/barrier structure of the
// traced run. Results are validated before being reported.
func KernelOpCounts(reg *kernel.Registry, threads, vertices, edges int, seed int64) []KernelOpRow {
	m := machine.New(threads, machine.WithExec(machine.ExecTrace), machine.WithMetrics())
	defer m.Close()
	var rows []KernelOpRow
	for _, d := range reg.All() {
		if d.Contention == kernel.ContentionNone || d.Contention == kernel.ContentionEREW {
			continue
		}
		var inst kernel.Instance
		for _, method := range kernelOpMethods {
			if !d.SupportsMethod(method) {
				continue
			}
			if inst == nil {
				inst = d.New(m, countWorkload(d, vertices, edges, seed))
			}
			st, snap := replay(m, d, inst, method)
			rows = append(rows, KernelOpRow{
				Kernel: d.Name, Method: method,
				Attempts: snap.CASAttempts, Wins: snap.CASWins,
				Losses: snap.CASLosses, Skips: snap.PrecheckSkips,
				Steps: uint64(st.Steps), Barriers: uint64(st.Barriers),
			})
		}
	}
	return rows
}

// KernelTraceCounts replays every registered kernel once under the trace
// backend with P logical workers and reports each run's structural cost.
// Every result is validated before its trace is reported. A kernel added by
// a single registration shows up here with no other edits.
func KernelTraceCounts(reg *kernel.Registry, threads, vertices, edges int, seed int64) []KernelTraceRow {
	m := machine.New(threads, machine.WithExec(machine.ExecTrace))
	defer m.Close()
	var rows []KernelTraceRow
	for _, d := range reg.All() {
		w := countWorkload(d, vertices, edges, seed)
		method := cw.CASLT
		if len(d.Methods) > 0 && !d.SupportsMethod(method) {
			method = d.Methods[0]
		}
		st, _ := replay(m, d, d.New(m, w), method)
		rows = append(rows, traceRow(d.Name, st))
	}
	return rows
}

// FormatKernelOps renders the per-kernel operation counts as an aligned
// table.
func FormatKernelOps(w io.Writer, vertices, edges int, rows []KernelOpRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== kernel-ops: selection-protocol operations per full run (n=%d, m=%d) ==\n", vertices, edges)
	out := [][]string{{"kernel", "method", "loads", "atomic RMWs", "wins", "steps", "barriers"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Kernel,
			r.Method.String(),
			strconv.FormatUint(r.Loads(), 10),
			strconv.FormatUint(r.Attempts, 10),
			strconv.FormatUint(r.Wins, 10),
			strconv.FormatUint(r.Steps, 10),
			strconv.FormatUint(r.Barriers, 10),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nwins are identical across methods (same algorithm, one winner per\n" +
		"target per round); the gatekeeper turns every attempt into an atomic RMW,\n" +
		"the pre-checked variants turn almost all of them into plain loads.\n" +
		"counts come from the metrics shards each kernel's own claim sites feed;\n" +
		"steps/barriers come from the trace backend's deterministic replay:\n" +
		"the synchronization structure every method pays for identically.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatKernelTraces renders the per-kernel structural costs as an aligned
// table.
func FormatKernelTraces(w io.Writer, vertices, edges int, rows []KernelTraceRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== kernel-trace: structural cost per full run (n=%d, m=%d; maxfind n=512) ==\n", vertices, edges)
	out := [][]string{{"kernel", "p", "steps", "barriers", "singles", "cw rounds", "iter max", "iter total"}}
	for _, r := range rows {
		out = append(out, []string{
			r.Kernel,
			strconv.Itoa(r.P),
			strconv.FormatUint(r.Steps, 10),
			strconv.FormatUint(r.Barriers, 10),
			strconv.FormatUint(r.Singles, 10),
			strconv.FormatUint(uint64(r.Rounds), 10),
			strconv.FormatUint(r.IterMax, 10),
			strconv.FormatUint(r.IterTotal, 10),
		})
	}
	writeAligned(&b, out)
	b.WriteString("\nsteps are work-shared loops; barriers are the synchronizations a timed\n" +
		"backend would execute (pool: fork/join steps; team: sense barriers).\n" +
		"iter max / p vs iter total / p² is the unit-cost load imbalance.\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// KernelOpsJSONRows converts the op-count rows to the machine-readable
// trajectory rows. They carry counts rather than a timing, so NsOp stays
// zero and the exec field records the trace backend that produced them;
// the claim counts use the metrics rows' fields, and loads follow from
// skips and attempts by method (KernelOpRow.Loads).
func KernelOpsJSONRows(rows []KernelOpRow, threads int) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:         "kernelops",
			Kernel:        r.Kernel,
			Method:        r.Method.String(),
			Exec:          machine.ExecTrace.String(),
			Threads:       threads,
			Steps:         r.Steps,
			Barriers:      r.Barriers,
			CASAttempts:   r.Attempts,
			CASWins:       r.Wins,
			CASLosses:     r.Losses,
			PrecheckSkips: r.Skips,
		})
	}
	return out
}

// KernelTraceJSONRows converts the trace rows to the machine-readable
// trajectory rows.
func KernelTraceJSONRows(rows []KernelTraceRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:     "kerneltrace",
			Kernel:    r.Kernel,
			Exec:      machine.ExecTrace.String(),
			Threads:   r.P,
			Steps:     r.Steps,
			Barriers:  r.Barriers,
			Singles:   r.Singles,
			Rounds:    uint64(r.Rounds),
			IterMax:   r.IterMax,
			IterTotal: r.IterTotal,
		})
	}
	return out
}
