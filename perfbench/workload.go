package main

import (
	"fmt"
	"math/rand"
	"time"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/core/machine"
	"crcwpram/internal/graph"
	"crcwpram/internal/kernel"
	"crcwpram/internal/sched"

	// Linking the algorithm packages populates kernel.Default.
	_ "crcwpram/internal/alg/bfs"
	_ "crcwpram/internal/alg/cc"
	_ "crcwpram/internal/alg/listrank"
	_ "crcwpram/internal/alg/matching"
	_ "crcwpram/internal/alg/maxfind"
	_ "crcwpram/internal/alg/mis"
)

// input is one generated kernel input of a workload.
type input struct {
	name string
	w    kernel.Workload
}

// job is one kernel × CW method × exec cell of a workload's pass.
type job struct {
	kernel string
	input  int // index into the workload's inputs
	set    kernel.Settings
}

// descriptor is the job's registered kernel.
func (j job) descriptor() *kernel.Descriptor {
	d, ok := kernel.Lookup(j.kernel)
	if !ok {
		panic("perfbench: kernel " + j.kernel + " is not registered")
	}
	return d
}

// label names the job's per-layer metric stem: alg.<kernel>.<method>.<exec>.
// Kernels without a method axis (EREW or fixed by construction) use "fixed".
func (j job) label() string {
	method := "fixed"
	if len(j.descriptor().Methods) > 0 {
		method = j.set.Method.String()
	}
	return fmt.Sprintf("alg.%s.%s.%s", j.kernel, method, j.set.Exec)
}

// spec is a named workload: its machine policy, its fixed job list, and how
// to build its inputs from a seed (mini selects miniature sizes for the
// tests). A job's input field indexes the built inputs.
type spec struct {
	name   string
	policy sched.Policy
	inputs func(rng *rand.Rand, seed uint64, mini bool) []input
	jobs   func() []job
}

// specs lists the workloads in presentation order.
var specs = []*spec{
	{
		name:   "paper-mix",
		policy: sched.Block,
		inputs: paperMixInputs,
		jobs:   paperMixJobs,
	},
	{
		name:   "deep-rounds",
		policy: sched.Block,
		inputs: deepRoundsInputs,
		jobs:   deepRoundsJobs,
	},
	{
		name:   "skewed-rmat",
		policy: sched.Stealing,
		inputs: skewedRMATInputs,
		jobs:   skewedRMATJobs,
	},
}

func lookupSpec(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

func pick(mini bool, full, small int) int {
	if mini {
		return small
	}
	return full
}

func paperMixInputs(rng *rand.Rand, seed uint64, mini bool) []input {
	list := make([]uint32, pick(mini, 1024, 256))
	for i := range list {
		list[i] = rng.Uint32()
	}
	n, m := pick(mini, 25000, 2000), pick(mini, 250000, 20000)
	bfsG := graph.ConnectedRandom(n, m, rng.Int63())
	ccG := graph.RandomUndirected(n, m, rng.Int63())
	return []input{
		{"list", kernel.Workload{List: list, Seed: seed}},
		{"connected", kernel.Workload{Graph: bfsG, Source: uint32(rng.Intn(n)), Seed: seed}},
		{"uniform", kernel.Workload{Graph: ccG, Seed: seed}},
	}
}

func paperMixJobs() []job {
	pool := func(k string, in int, m cw.Method) job {
		return job{k, in, kernel.Settings{Exec: machine.ExecPool, Method: m}}
	}
	return []job{
		pool("maxfind", 0, cw.CASLT), pool("maxfind", 0, cw.Gatekeeper), pool("maxfind", 0, cw.Naive),
		pool("bfs", 1, cw.CASLT), pool("bfs", 1, cw.Gatekeeper), pool("bfs", 1, cw.Naive),
		pool("cc", 2, cw.CASLT), pool("cc", 2, cw.Gatekeeper),
	}
}

func deepRoundsInputs(rng *rand.Rand, seed uint64, mini bool) []input {
	// Every seed yields the same work: the narrow grid's source sits in its
	// first column (about cols levels from any row), the square grid's at a
	// corner (all four are symmetric), and the list is a permuted chain.
	rows, cols := 8, pick(mini, 4000, 200)
	side := pick(mini, 300, 30)
	corners := []uint32{0, uint32(side - 1), uint32(side * (side - 1)), uint32(side*side - 1)}
	return []input{
		{"narrow-grid", kernel.Workload{Graph: graph.Grid2D(rows, cols), Source: uint32(rng.Intn(rows) * cols), Seed: seed}},
		{"square-grid", kernel.Workload{Graph: graph.Grid2D(side, side), Source: corners[rng.Intn(4)], Seed: seed}},
		{"chain", kernel.Workload{Next: kernel.Chain(pick(mini, 1<<16, 1<<10), seed), Seed: seed}},
	}
}

func deepRoundsJobs() []job {
	var jobs []job
	for _, e := range machine.Execs {
		set := kernel.Settings{Exec: e, Method: cw.CASLT}
		jobs = append(jobs, job{"bfs-frontier", 0, set}, job{"bfs-frontier", 1, set}, job{"cc", 1, set}, job{"listrank", 2, set})
	}
	return jobs
}

// rmatGraphs is the number of RMAT graphs skewed-rmat draws per seed: the
// randomized kernels' round counts vary from graph to graph, and a pass
// over four graphs halves that variance against a single one of four times
// the size.
const rmatGraphs = 4

func skewedRMATInputs(rng *rand.Rand, seed uint64, mini bool) []input {
	scale := pick(mini, 13, 9)
	var inputs []input
	for k := 0; k < rmatGraphs; k++ {
		g := graph.RMAT(scale, 8<<scale, .57, .19, .19, rng.Int63())
		// The hub is the source: RMAT leaves many vertices isolated, and a
		// traversal from one would measure nothing.
		var hub uint32
		for v := 0; v < g.NumVertices(); v++ {
			if g.Degree(uint32(v)) > g.Degree(hub) {
				hub = uint32(v)
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("rmat%d", k), kernel.Workload{Graph: g, Source: hub, Seed: seed*rmatGraphs + uint64(k)}})
	}
	return inputs
}

func skewedRMATJobs() []job {
	var jobs []job
	for in := 0; in < rmatGraphs; in++ {
		for _, k := range []string{"bfs-frontier", "bfs-hybrid", "cc-randmate", "matching", "mis"} {
			d := job{kernel: k}.descriptor()
			set := kernel.Settings{Exec: machine.ExecTeam, Method: cw.CASLT, Bitmap: d.Bitmap}
			if d.Stealable {
				set.Steal = kernel.StealOn
			}
			jobs = append(jobs, job{k, in, set})
		}
	}
	return jobs
}

// csrBytes is the memory held by a graph's CSR arrays, from their lengths.
func csrBytes(g *graph.Graph) int {
	return 4 * (len(g.Offsets()) + len(g.Targets()))
}

// generate builds a workload's inputs from seed and reports the time taken.
func (s *spec) generate(seed uint64, mini bool) ([]input, time.Duration) {
	start := time.Now()
	inputs := s.inputs(rand.New(rand.NewSource(int64(seed))), seed, mini)
	return inputs, time.Since(start)
}
