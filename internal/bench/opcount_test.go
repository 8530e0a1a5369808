package bench

import (
	"bytes"
	"strings"
	"testing"

	"crcwpram/internal/core/cw"
	"crcwpram/internal/kernel"
)

func TestOpCountTableValidatesSectionSix(t *testing.T) {
	const threads = 4
	sweep := []int{100, 1000, 10000}
	rows := OpCountTable(threads, sweep)
	if len(rows) != len(sweep) {
		t.Fatalf("%d rows, want %d", len(rows), len(sweep))
	}
	for _, r := range rows {
		p := uint64(r.PPRAM)
		// Gatekeeper: one RMW per virtual writer, exactly.
		if r.Gate[1] != p {
			t.Fatalf("P_PRAM=%d: gatekeeper RMWs = %d, want %d", r.PPRAM, r.Gate[1], p)
		}
		// CAS-LT: one load per writer, RMWs bounded by the physical
		// concurrency (losers that raced past the pre-check), never by
		// P_PRAM.
		if r.CASLT[0] != p {
			t.Fatalf("P_PRAM=%d: caslt loads = %d, want %d", r.PPRAM, r.CASLT[0], p)
		}
		if r.CASLT[1] > uint64(threads+1) {
			t.Fatalf("P_PRAM=%d: caslt RMWs = %d, want <= P_Phys+1 = %d", r.PPRAM, r.CASLT[1], threads+1)
		}
		// Checked gatekeeper: same load/RMW split as CAS-LT in this
		// single-round experiment.
		if r.GateChecked[0] != p {
			t.Fatalf("P_PRAM=%d: gate-checked loads = %d, want %d", r.PPRAM, r.GateChecked[0], p)
		}
		if r.GateChecked[1] > uint64(threads+1) {
			t.Fatalf("P_PRAM=%d: gate-checked RMWs = %d, want <= %d", r.PPRAM, r.GateChecked[1], threads+1)
		}
		// Exactly one winner everywhere.
		if r.CASLT[2] != 1 || r.Gate[2] != 1 || r.GateChecked[2] != 1 {
			t.Fatalf("P_PRAM=%d: wins = %d/%d/%d, want 1 each", r.PPRAM, r.CASLT[2], r.GateChecked[2], r.Gate[2])
		}
	}

	var out bytes.Buffer
	if err := FormatOpCounts(&out, threads, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"section-6", "P_PRAM", "gatekeeper RMWs"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("formatted op-count table missing %q", want)
		}
	}
}

func TestKernelOpCounts(t *testing.T) {
	rows := KernelOpCounts(kernel.Default, 2, 300, 1200, 7)
	byKey := map[string]KernelOpRow{}
	for _, r := range rows {
		byKey[r.Kernel+"/"+r.Method.String()] = r
	}
	// Every kernel that claims cells appears once per counting method it
	// supports, and nothing else does.
	want := 0
	for _, d := range kernel.All() {
		if d.Contention == kernel.ContentionNone || d.Contention == kernel.ContentionEREW {
			continue
		}
		for _, method := range kernelOpMethods {
			if !d.SupportsMethod(method) {
				continue
			}
			want++
			if _, ok := byKey[d.Name+"/"+method.String()]; !ok {
				t.Fatalf("no kernelops row for %s/%v", d.Name, method)
			}
		}
	}
	if len(rows) != want || want == 0 {
		t.Fatalf("%d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Wins == 0 {
			t.Fatalf("%s/%v: no wins recorded", r.Kernel, r.Method)
		}
		if r.Attempts != r.Wins+r.Losses {
			t.Fatalf("%s/%v: attempts %d != wins %d + losses %d", r.Kernel, r.Method, r.Attempts, r.Wins, r.Losses)
		}
		caslt, ok := byKey[r.Kernel+"/caslt"]
		if !ok {
			continue
		}
		// Same algorithm, same winner structure, whatever the method.
		if r.Wins != caslt.Wins {
			t.Fatalf("%s: %v wins %d, caslt wins %d", r.Kernel, r.Method, r.Wins, caslt.Wins)
		}
		// The gatekeeper turns every claim into an RMW; CAS-LT pre-checks
		// every claim with one load, so the two counts coincide.
		if r.Method == cw.Gatekeeper && r.Attempts != caslt.Loads() {
			t.Fatalf("%s: gatekeeper RMWs %d != caslt loads %d", r.Kernel, r.Attempts, caslt.Loads())
		}
	}
	for _, r := range rows {
		// The serial replay never races two claimants past the pre-check.
		if r.Method == cw.CASLT && r.Losses != 0 {
			t.Fatalf("%s: caslt lost %d claims under the serial replay", r.Kernel, r.Losses)
		}
	}
	// maxfind is the Section-6 contrast in kernel form: Θ(N²) gatekeeper
	// RMWs against O(N) for CAS-LT.
	if gate, caslt := byKey["maxfind/gatekeeper"], byKey["maxfind/caslt"]; gate.Attempts <= 100*caslt.Attempts {
		t.Fatalf("maxfind: gatekeeper RMWs %d not far above caslt RMWs %d", gate.Attempts, caslt.Attempts)
	}

	// The JSON rows carry the metrics rows' claim ledger, and -validatejson
	// holds them to it.
	jrows := KernelOpsJSONRows(rows, 2)
	for _, broken := range []bool{false, true} {
		if broken {
			jrows[0].CASLosses++
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, jrows); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateJSON(&buf); (err != nil) != broken {
			t.Fatalf("ValidateJSON on kernelops rows (broken ledger %v): %v", broken, err)
		}
	}

	var out bytes.Buffer
	if err := FormatKernelOps(&out, 300, 1200, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kernel-ops") || !strings.Contains(out.String(), "atomic RMWs") {
		t.Fatalf("kernel-ops table malformed:\n%s", out.String())
	}
}

func TestSimulationTable(t *testing.T) {
	rows := SimulationTable(2, 1, []int{8, 32}, 5)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Direct <= 0 || r.AllPairs <= 0 || r.Tournament <= 0 {
			t.Fatalf("non-positive timing in %+v", r)
		}
	}
	var out bytes.Buffer
	if err := FormatSimulations(&out, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulations", "all-pairs", "tournament", "log P"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("simulation table missing %q:\n%s", want, out.String())
		}
	}
}
