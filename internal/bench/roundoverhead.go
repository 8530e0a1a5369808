package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"crcwpram/internal/core/exec"
	"crcwpram/internal/core/machine"
)

// This file measures the fixed cost of one PRAM round under both execution
// modes — the quantity the team mode exists to reduce. An empty-body round
// is pure synchronization: the pool path pays two P-party barrier phases
// (the caller runs worker 0's share) plus a step descriptor per round; the
// team path pays one P-party team barrier inside a region entered once. Both modes run the identical
// SPMD body through exec.Run, so the measured gap is exactly the backend
// difference the -exec axis selects, including the unified layer's own
// dispatch cost. The same measurement is available as
// BenchmarkRoundOverhead in the machine package; this variant feeds the
// CLI's tables and JSON trajectory.

// OverheadRow is one measured (P, exec) cell of the round-overhead sweep.
type OverheadRow struct {
	P          int
	Exec       string
	NsPerRound float64
}

// RoundOverhead measures the median wall time of an empty work-shared
// round, in nanoseconds, for every worker count in ps under both execution
// modes. Each measurement times `rounds` consecutive empty rounds and is
// repeated reps times.
func RoundOverhead(ps []int, rounds, reps int, log io.Writer) []OverheadRow {
	if rounds <= 0 {
		rounds = 5000
	}
	if reps <= 0 {
		reps = 3
	}
	var out []OverheadRow
	for _, p := range ps {
		for _, e := range machine.Execs {
			// Machine construction is the untimed per-repetition reset; a
			// fresh machine per rep keeps barrier state cold, as before the
			// timing helpers were shared.
			var m *machine.Machine
			body := func() {
				exec.Run(m, e, func(ctx exec.Ctx) {
					for i := 0; i < rounds; i++ {
						ctx.For(p, func(int) {})
					}
				})
			}
			ns := medianNs(reps, func() {
				if m != nil {
					m.Close()
				}
				m = machine.New(p)
			}, body)
			m.Close()
			row := OverheadRow{
				P:          p,
				Exec:       e.String(),
				NsPerRound: ns / float64(rounds),
			}
			out = append(out, row)
			if log != nil {
				fmt.Fprintf(log, "roundoverhead p=%d exec=%s ns/round=%.1f\n", p, e.String(), row.NsPerRound)
			}
		}
	}
	return out
}

// FormatRoundOverhead renders the sweep as one row per worker count with
// both modes side by side and the pool/team ratio (how many times cheaper a
// team round is).
func FormatRoundOverhead(w io.Writer, rows []OverheadRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== roundoverhead: ns per empty work-shared round ==\n")
	byP := map[int]map[string]float64{}
	var ps []int
	for _, r := range rows {
		if byP[r.P] == nil {
			byP[r.P] = map[string]float64{}
			ps = append(ps, r.P)
		}
		byP[r.P][r.Exec] = r.NsPerRound
	}
	table := [][]string{{"p", "pool", "team", "pool/team"}}
	for _, p := range ps {
		pool, team := byP[p]["pool"], byP[p]["team"]
		ratio := "-"
		if team > 0 {
			ratio = strconv.FormatFloat(pool/team, 'f', 2, 64) + "x"
		}
		table = append(table, []string{
			strconv.Itoa(p),
			strconv.FormatFloat(pool, 'f', 1, 64),
			strconv.FormatFloat(team, 'f', 1, 64),
			ratio,
		})
	}
	writeAligned(&b, table)
	_, err := io.WriteString(w, b.String())
	return err
}

// OverheadJSONRows converts the sweep to the generic machine-readable rows.
func OverheadJSONRows(rows []OverheadRow) []Row {
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		out = append(out, Row{
			Bench:   "roundoverhead",
			Kernel:  "empty-round",
			Exec:    r.Exec,
			Threads: r.P,
			NsOp:    r.NsPerRound,
		})
	}
	return out
}
