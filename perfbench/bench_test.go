package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// miniOptions runs a workload at miniature size for a fraction of a
// second.
func miniOptions(seed uint64) options {
	return options{seed: seed, seconds: 0.05, mini: true}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (workloads, endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloads, endToEnd, perLayer
}

func names(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if g := names(got); strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("%s metrics:\n got  %v\n want %v", what, g, w)
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	workloads, _, _ := benchmarkJSON(t)
	if strings.Join(workloads, ",") != strings.Join(specNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", workloads, specNames())
	}
}

// TestPlainRunMini runs every workload at miniature size with tracing off:
// no job may fail, and the report carries exactly the end-to-end metrics.
func TestPlainRunMini(t *testing.T) {
	_, endToEnd, _ := benchmarkJSON(t)
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			r := plainRun(s, miniOptions(1))
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
			}
			sameSet(t, "plain", r.metrics, endToEnd)
			for k, m := range r.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestTracedRunDeterminism runs the traced run twice at one seed and once
// at another: the structural counts and the CSR size repeat exactly at one
// seed, and every run reports the full per-layer metric set.
func TestTracedRunDeterminism(t *testing.T) {
	_, _, perLayer := benchmarkJSON(t)
	exact := []string{"exec.trace.steps", "exec.trace.barriers", "exec.trace.rounds", "graph.csr_mb"}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			var runs []*report
			for _, seed := range []uint64{7, 7, 8} {
				o := miniOptions(seed)
				o.spansDir = t.TempDir()
				r, err := tracedRun(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 {
					t.Fatalf("seed %d: %d jobs failed: %v", seed, r.failed, r.errs)
				}
				sameSet(t, "traced", r.metrics, perLayer)
				checkSpans(t, filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", s.name, seed)))
				runs = append(runs, r)
			}
			for _, k := range exact {
				if a, b := runs[0].metrics[k].Value, runs[1].metrics[k].Value; a != b {
					t.Errorf("%s differs at one seed: %v vs %v", k, a, b)
				}
				if runs[0].metrics[k].Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, runs[0].metrics[k].Value)
				}
			}
		})
	}
}

// checkSpans reads a span file and checks the span tree: every span is
// closed, has a known parent of the expected level, and lies inside it.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Provenance provenance `json:"provenance"`
		Spans      []span     `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	parentOf := map[string][]string{
		"setup": {""}, "graph.gen": {"setup"}, "machine.new": {"setup"}, "kernel.new": {"setup"},
		"pass": {"", "setup"}, "job": {"pass"},
		"kernel.prepare": {"job"}, "alg.run": {"job"}, "kernel.validate": {"job"},
	}
	seen := map[string]bool{}
	for _, s := range doc.Spans {
		seen[s.Name] = true
		parent := ""
		if s.Parent >= 0 {
			p := doc.Spans[s.Parent]
			parent = p.Name
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s [%d,%d] outside parent %s [%d,%d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if s.End < s.Start {
			t.Errorf("span %d %s not closed", s.ID, s.Name)
		}
		ok := false
		for _, want := range parentOf[s.Name] {
			ok = ok || parent == want
		}
		if !ok {
			t.Errorf("span %d %s has parent %q", s.ID, s.Name, parent)
		}
	}
	for name := range parentOf {
		if !seen[name] {
			t.Errorf("no %s span", name)
		}
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 50, End: 60}, {Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestCommandLine(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Errorf("unknown workload: exit 0")
	}
	if code := run([]string{"--workload", "paper-mix", "--trace", "2"}, &out, &errs); code == 0 {
		t.Errorf("--trace 2: exit 0")
	}
	out.Reset()
	args := []string{"--workload", "all", "--seed", "3", "--seconds", "0.05", "--trace", "0", "--mini"}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result %+v", res)
	}
	_, endToEnd, _ := benchmarkJSON(t)
	for _, s := range specs {
		for _, m := range endToEnd {
			if _, ok := res.Metrics[s.name+"."+m]; !ok {
				t.Errorf("all: no %s.%s", s.name, m)
			}
		}
	}
}
