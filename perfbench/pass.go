package main

import (
	"fmt"
	"runtime"
	"time"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/kernel"
	"crcwpram/internal/race"
)

// bench is one set-up of a workload: its generated inputs and job list.
type bench struct {
	spec   *spec
	inputs []input
	jobs   []job
	// attempted and failed count job executions (every pass, warm-ups
	// included); errs keeps the first few failure messages.
	attempted, failed int
	errs              []string
}

// rig is one machine with every job's kernel bound to it. Jobs that share
// a kernel and an input share one instance, as the sweep engine does.
type rig struct {
	m     *machine.Machine
	insts []kernel.Instance
	// tr records the rig's pass spans (nil: untraced); memstats makes its
	// passes sum the heap bytes allocated by the Run calls.
	tr       *tracer
	memstats bool
	passes   int // passes run so far; the rotation offset of the next one
}

func (r *rig) close() { r.m.Close() }

// rigConfig says how to build one rig of a set-up. A traced rig has
// machine.WithMetrics attached and records its pass spans.
type rigConfig struct {
	p        int
	traced   bool
	memstats bool
}

// newRig builds a P-worker machine under the workload's policy and binds
// every job's kernel through the registry.
func (b *bench) newRig(c rigConfig, tr *tracer, parent int) (*rig, time.Duration) {
	opts := []machine.Option{machine.WithPolicy(b.spec.policy)}
	if c.traced {
		opts = append(opts, machine.WithMetrics())
	}
	id := tr.begin("machine.new", parent, -1)
	r := &rig{m: machine.New(c.p, opts...), insts: make([]kernel.Instance, len(b.jobs)), memstats: c.memstats}
	if c.traced {
		r.tr = tr
	}
	tr.end(id)

	id = tr.begin("kernel.new", parent, -1)
	start := time.Now()
	type key struct {
		kernel string
		input  int
	}
	bound := make(map[key]kernel.Instance)
	for i, j := range b.jobs {
		k := key{j.kernel, j.input}
		if bound[k] == nil {
			bound[k] = j.descriptor().New(r.m, b.inputs[j.input].w)
		}
		r.insts[i] = bound[k]
	}
	newTime := time.Since(start)
	tr.end(id)
	return r, newTime
}

// setupStats times one set-up.
type setupStats struct {
	total, gen, kernelNew time.Duration
}

// setup generates the workload's inputs, builds one rig per config and
// runs one untimed warm-up pass on each. Under the race detector the naive
// jobs are dropped: naive writes race by design.
func setup(s *spec, o options, configs []rigConfig, tr *tracer) (*bench, []*rig, setupStats) {
	var st setupStats
	start := time.Now()
	root := tr.begin("setup", -1, -1)

	id := tr.begin("graph.gen", root, -1)
	inputs, gen := s.generate(o.seed, o.mini)
	tr.end(id)
	st.gen = gen

	b := &bench{spec: s, inputs: inputs}
	for _, j := range s.jobs() {
		if !(race.Enabled && j.set.Method == cw.Naive && len(j.descriptor().Methods) > 0) {
			b.jobs = append(b.jobs, j)
		}
	}
	rigs := make([]*rig, len(configs))
	for i, c := range configs {
		var d time.Duration
		rigs[i], d = b.newRig(c, tr, root)
		st.kernelNew += d
	}
	for _, r := range rigs {
		b.pass(r, -1, root)
	}
	tr.end(root)
	st.total = time.Since(start)
	return b, rigs, st
}

// passStats is one pass over the job list.
type passStats struct {
	solve, prepare, validate time.Duration
	alloc                    uint64
	run                      []time.Duration // per job
	failed                   int
}

// pass runs every job once — Prepare untimed, Run timed, Validate after —
// starting at job (passes mod len(jobs)) so no job always runs first.
func (b *bench) pass(r *rig, passID, parent int) passStats {
	ps := passStats{run: make([]time.Duration, len(b.jobs))}
	id := r.tr.begin("pass", parent, passID)
	n := len(b.jobs)
	first := r.passes % n
	r.passes++
	for k := 0; k < n; k++ {
		i := (first + k) % n
		if err := b.runJob(r, i, b.jobs[i].set, &ps, id, passID); err != nil {
			ps.failed++
			b.fail(fmt.Sprintf("%s on %s (P=%d, pass %d): %v",
				b.jobs[i].label(), b.inputs[b.jobs[i].input].name, r.m.P(), passID, err))
		}
	}
	r.tr.end(id)
	return ps
}

// fail records one failed job.
func (b *bench) fail(msg string) {
	b.failed++
	if len(b.errs) < 8 {
		b.errs = append(b.errs, msg)
	}
}

// runJob executes job i on r under set. A validation error or a panic is
// returned, not raised, so one failure drops its sample without ending the
// run.
func (b *bench) runJob(r *rig, i int, set kernel.Settings, ps *passStats, parent, passID int) (err error) {
	b.attempted++
	tr := r.tr
	jid := tr.begin("job", parent, passID)
	defer tr.end(jid)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	in := r.insts[i]

	id := tr.begin("kernel.prepare", jid, passID)
	start := time.Now()
	in.Prepare(set)
	ps.prepare += time.Since(start)
	tr.end(id)

	var ms runtime.MemStats
	if r.memstats {
		runtime.ReadMemStats(&ms)
		ps.alloc -= ms.TotalAlloc
	}
	id = tr.begin("alg.run", jid, passID)
	start = time.Now()
	in.Run(set)
	d := time.Since(start)
	tr.end(id)
	ps.solve += d
	ps.run[i] = d
	if r.memstats {
		runtime.ReadMemStats(&ms)
		ps.alloc += ms.TotalAlloc
	}

	id = tr.begin("kernel.validate", jid, passID)
	start = time.Now()
	err = in.Validate()
	ps.validate += time.Since(start)
	tr.end(id)
	return err
}
