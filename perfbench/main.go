// Command perfbench is the repository's benchmark: a single-process,
// closed-loop load generator (one client; the next pass starts when the
// previous one ends). It binds registered kernels through
// kernel.Lookup(...).New on machine.New(P) and times passes over a
// workload's fixed, seeded job list (job = kernel × CW method × exec),
// following the paper's protocol: Prepare untimed, Run timed, Validate
// after.
//
//	perfbench --workload paper-mix --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics from plain machines;
// with --trace 1 it reports the per-layer metrics from a separate run that
// attaches machine.WithMetrics, records spans around its own calls into
// each layer and writes them to --spans. --workload all runs every
// workload in turn. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. RATIONALE.md says why
// each workload exists and which metric each layer should move.
//
// Its own tests run every workload at miniature size (--mini):
//
//	cd perfbench && go test ./... && go test -race ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// report is one workload's result.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	errs      []string
	prov      provenance
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
	r.prov.Samples[name] = n
}

// provenance records where and how a result was measured.
type provenance struct {
	Workload       string         `json:"workload"`
	Seed           uint64         `json:"seed"`
	Trace          bool           `json:"trace"`
	Seconds        float64        `json:"seconds"`
	NumCPU         int            `json:"num_cpu"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	GoVersion      string         `json:"go_version"`
	Revision       string         `json:"vcs_revision"`
	P              int            `json:"p"`
	SerialP        int            `json:"serial_p"`
	Oversubscribed bool           `json:"oversubscribed"`
	Samples        map[string]int `json:"samples"`
}

func newProvenance(workload string, o options, trace bool) provenance {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return provenance{
		Workload: workload, Seed: o.seed, Trace: trace, Seconds: o.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: rev,
		P: parP, SerialP: serialP, Oversubscribed: parP > runtime.NumCPU(),
		Samples: map[string]int{},
	}
}

// options are the command-line settings of one invocation.
type options struct {
	seed     uint64
	seconds  float64
	mini     bool
	spansDir string // traced run: where the span file goes ("" = nowhere)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(specNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time per workload, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	mini := fs.Bool("mini", false, "miniature inputs (for tests)")
	spansDir := fs.String("spans", ".bench_build/spans", "traced run: directory of the span files <workload>-seed<seed>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = specNames()
	}
	for _, n := range names {
		if _, ok := lookupSpec(n); !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", n, strings.Join(specNames(), ", "))
			return 2
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}

	o := options{seed: *seed, seconds: *seconds, mini: *mini, spansDir: *spansDir}
	var attempted, failed int
	metrics := make(map[string]metric)
	for _, n := range names {
		s, _ := lookupSpec(n)
		var r *report
		if *trace == 1 {
			var err error
			if r, err = tracedRun(s, o); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		} else {
			r = plainRun(s, o)
		}
		printReport(stdout, r)
		attempted += r.attempted
		failed += r.failed
		for k, m := range r.metrics {
			if len(names) > 1 {
				k = n + "." + k
			}
			metrics[k] = m
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func specNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// printReport writes the provenance line, any failures and one line per
// metric with its unit and sample count.
func printReport(w io.Writer, r *report) {
	prov, err := json.Marshal(r.prov)
	if err != nil {
		prov = []byte(err.Error())
	}
	fmt.Fprintf(w, "# provenance %s\n", prov)
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAILED %s\n", e)
	}
	fmt.Fprintf(w, "# %s: attempted %d jobs, failed %d (fail_ratio %.4g)\n",
		r.prov.Workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d\n", k, m.Value, m.Unit, m.n)
	}
}
