package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	parP    = 2 // workers of the main loop
	serialP = 1 // workers of the serial baseline
	// setupReps set-ups run per invocation; setup_s is their median.
	setupReps = 5
	// minPasses keeps at least ten samples beyond p90.
	minPasses = 100
	// serialShare is the share of the measuring time spent on P=1 passes.
	serialShare = 0.3
)

// durations is a sample of times.
type durations []time.Duration

// quantile returns the q-quantile in ms, interpolating between ranks.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	xs := append(durations(nil), d...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	hi := min(lo+1, len(xs)-1)
	frac := pos - float64(lo)
	return (float64(xs[lo])*(1-frac) + float64(xs[hi])*frac) / float64(time.Millisecond)
}

// setupMany runs setupReps set-ups, keeps the last and closes the others.
// Job counts and failures accumulate over all of them.
func setupMany(s *spec, o options, configs []rigConfig, tr *tracer) (*bench, []*rig, []setupStats) {
	var b *bench
	var rigs []*rig
	var stats []setupStats
	attempted, failed := 0, 0
	var errs []string
	for k := 0; k < setupReps; k++ {
		for _, r := range rigs {
			r.close()
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one does not land in its time.
		runtime.GC()
		var st setupStats
		b, rigs, st = setup(s, o, configs, tr)
		attempted += b.attempted
		failed += b.failed
		errs = append(errs, b.errs...)
		stats = append(stats, st)
	}
	b.attempted, b.failed, b.errs = attempted, failed, errs
	return b, rigs, stats
}

// heapInuseMB is HeapInuse after a GC, in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

func newReport(s *spec, o options, trace bool) *report {
	return &report{metrics: map[string]metric{}, prov: newProvenance(s.name, o, trace)}
}

// plainRun measures the end-to-end metrics with tracing and metrics off:
// P=2 passes and P=1 baseline passes interleaved for the measuring time,
// and past it until p90 has ten samples beyond it (at most three times
// the measuring time).
func plainRun(s *spec, o options) *report {
	b, rigs, setups := setupMany(s, o, []rigConfig{{p: parP, memstats: true}, {p: serialP}}, nil)
	par, ser := rigs[0], rigs[1]
	defer par.close()
	defer ser.close()
	heap := heapInuseMB()

	var solve, prepare, serial durations
	var alloc uint64
	var parTime, serTime time.Duration
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for pass := 0; pass < 2 || time.Since(start) < budget || (len(solve) < minPasses && time.Since(start) < 3*budget); pass++ {
		t0 := time.Now()
		if float64(serTime) < float64(parTime)*serialShare/(1-serialShare) {
			ps := b.pass(ser, pass, -1)
			serTime += time.Since(t0)
			if ps.failed == 0 {
				serial = append(serial, ps.solve)
			}
			continue
		}
		ps := b.pass(par, pass, -1)
		parTime += time.Since(t0)
		if ps.failed == 0 {
			solve = append(solve, ps.solve)
			prepare = append(prepare, ps.prepare)
			alloc += ps.alloc
		}
	}

	r := newReport(s, o, false)
	r.set("solve_ms_p50", solve.quantile(.5), "ms", len(solve))
	r.set("solve_ms_p90", solve.quantile(.9), "ms", len(solve))
	r.set("serial_ms_p50", serial.quantile(.5), "ms", len(serial))
	r.set("prepare_ms_p50", prepare.quantile(.5), "ms", len(prepare))
	var setupTimes durations
	for _, st := range setups {
		setupTimes = append(setupTimes, st.total)
	}
	r.set("setup_s", setupTimes.quantile(.5)/1e3, "s", len(setupTimes))
	r.set("alloc_kb_per_solve", ratio(float64(alloc)/1024, float64(len(solve))), "KiB", len(solve))
	r.set("heap_inuse_mb", heap, "MiB", 1)
	r.set("valid_ratio", 1-ratio(float64(b.failed), float64(b.attempted)), "ratio", b.attempted)
	r.attempted, r.failed, r.errs = b.attempted, b.failed, b.errs
	return r
}

// tracedRun measures the per-layer metrics: set-ups and passes under
// spans, the traced P=2 machine with WithMetrics attached, untraced P=2
// passes interleaved for the overhead ratio, the L0/L1 microbenchmarks and
// one exec=trace replay of every job for the structural counts.
func tracedRun(s *spec, o options) (*report, error) {
	tr := newTracer()
	b, rigs, setups := setupMany(s, o, []rigConfig{{p: parP}, {p: parP, traced: true}}, tr)
	plain, traced := rigs[0], rigs[1]
	defer plain.close()
	defer traced.close()

	r := newReport(s, o, true)
	var gen, knew durations
	for _, st := range setups {
		gen = append(gen, st.gen)
		knew = append(knew, st.kernelNew)
	}
	r.set("graph.gen_s", gen.quantile(.5)/1e3, "s", len(gen))
	r.set("kernel.new_ms", knew.quantile(.5), "ms", len(knew))
	var csr int
	for _, in := range b.inputs {
		if in.w.Graph != nil {
			csr += csrBytes(in.w.Graph)
		}
	}
	r.set("graph.csr_mb", float64(csr)/(1<<20), "MiB", 1)

	for k, v := range cwMicro(o.mini) {
		r.set(k, v, "ns", microReps)
	}
	for k, v := range machineMicro(o.mini) {
		r.set(k, v, "ns", microReps)
	}
	for k, v := range b.traceCounts(plain) {
		r.set(k, v, "count", 1)
	}

	traced.m.Metrics().Reset()
	var plainSolve, tracedSolve, prepare, validate durations
	runs := make(map[string]durations)
	var parTime, trTime time.Duration
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for pass := 0; pass < 2 || time.Since(start) < budget; pass++ {
		t0 := time.Now()
		if trTime > parTime {
			ps := b.pass(plain, pass, -1)
			parTime += time.Since(t0)
			if ps.failed == 0 {
				plainSolve = append(plainSolve, ps.solve)
			}
			continue
		}
		ps := b.pass(traced, pass, -1)
		trTime += time.Since(t0)
		if ps.failed > 0 {
			continue
		}
		tracedSolve = append(tracedSolve, ps.solve)
		prepare = append(prepare, ps.prepare)
		validate = append(validate, ps.validate)
		perLabel := make(map[string]time.Duration)
		for i, d := range ps.run {
			perLabel[b.jobs[i].label()] += d
		}
		for k, d := range perLabel {
			runs[k] = append(runs[k], d)
		}
	}
	counts, ratios := snapshotCounts(traced.m.Snapshot(), len(tracedSolve))
	for k, v := range counts {
		r.set(k, v, "count", len(tracedSolve))
	}
	for k, v := range ratios {
		r.set(k, v, "ratio", len(tracedSolve))
	}
	r.set("kernel.prepare_ms", prepare.quantile(.5), "ms", len(prepare))
	r.set("kernel.validate_ms", validate.quantile(.5), "ms", len(validate))
	r.set("metrics.overhead_ratio", ratio(tracedSolve.quantile(.5), plainSolve.quantile(.5)), "ratio", len(tracedSolve))
	for _, k := range allJobLabels() {
		// Jobs of other workloads read 0: the metric set is the same for
		// every workload.
		r.set(k+".run_ms", runs[k].quantile(.5), "ms", len(runs[k]))
	}
	self, count := tr.selfTimes()
	for _, name := range spanNames {
		root := "pass"
		if setupSpan[name] {
			root = "setup"
		}
		r.set("span."+name+".self_ms", ratio(float64(self[name])/float64(time.Millisecond), float64(count[root])), "ms", count[name])
	}

	r.attempted, r.failed, r.errs = b.attempted, b.failed, b.errs
	if o.spansDir != "" {
		path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", s.name, o.seed))
		if err := tr.write(path, r.prov); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return r, nil
}

// spanNames are the span levels whose self time the traced run reports;
// setupSpan marks those reported per set-up rather than per pass.
var (
	spanNames = []string{"setup", "graph.gen", "machine.new", "kernel.new",
		"pass", "job", "kernel.prepare", "alg.run", "kernel.validate"}
	setupSpan = map[string]bool{"setup": true, "graph.gen": true, "machine.new": true, "kernel.new": true}
)

// allJobLabels lists the alg.<kernel>.<method>.<exec> stems of every
// workload's jobs, sorted and without duplicates.
func allJobLabels() []string {
	seen := make(map[string]bool)
	for _, s := range specs {
		for _, j := range s.jobs() {
			seen[j.label()] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
