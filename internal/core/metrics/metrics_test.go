package metrics

import (
	"sync"
	"testing"
	"time"

	"crcwpram/internal/core/cw"
)

// TestNilSafety: the metrics-off path is a nil Recorder; every method must
// behave as a no-op and Claim must still return the kernel's won bool.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.P() != 0 {
		t.Fatal("nil recorder has workers")
	}
	sh := r.Shard(3)
	if sh != nil {
		t.Fatal("nil recorder returned a live shard")
	}
	if !sh.Claim(0, 1, cw.OutcomeWin) {
		t.Fatal("nil shard dropped a win")
	}
	if sh.Claim(0, 1, cw.OutcomeLoss) || sh.Claim(0, 1, cw.OutcomeSkip) {
		t.Fatal("nil shard invented a win")
	}
	sh.AddBusy(time.Second)
	sh.AddBarrierWait(time.Second)
	r.AddRoundTime(time.Second)
	r.AddRounds(5)
	r.EnableProbe(10)
	r.Reset()
	if s := r.Snapshot(); s.P != 0 || s.CASAttempts != 0 || s.Rounds != 0 ||
		s.BusyNs != 0 || s.BarrierWaitNs != 0 || s.RoundNs != 0 ||
		s.MaxCellClaims != 0 || len(s.WorkerBusyNs) != 0 {
		t.Fatalf("nil recorder snapshot not zero: %+v", s)
	}
}

// TestShardingMerge: each worker records into its own shard concurrently
// (as the machine's workers do between barriers); the snapshot after the
// join must be the exact sum. Run under -race this also proves the shards
// are genuinely disjoint.
func TestShardingMerge(t *testing.T) {
	const p, perWorker = 8, 10000
	r := NewRecorder(p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.Shard(w)
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					sh.Claim(i, 1, cw.OutcomeWin)
				case 1:
					sh.Claim(i, 1, cw.OutcomeLoss)
				default:
					sh.Claim(i, 1, cw.OutcomeSkip)
				}
			}
			sh.AddBusy(time.Duration(w+1) * time.Millisecond)
			sh.AddBarrierWait(time.Duration(w+1) * time.Microsecond)
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	wantWins := uint64(p * ((perWorker + 2) / 3))
	wantLosses := uint64(p * ((perWorker + 1) / 3))
	wantSkips := uint64(p * (perWorker / 3))
	if s.P != p || s.CASWins != wantWins || s.CASLosses != wantLosses || s.PrecheckSkips != wantSkips {
		t.Fatalf("merge mismatch: %+v want wins=%d losses=%d skips=%d", s, wantWins, wantLosses, wantSkips)
	}
	if s.CASAttempts != s.CASWins+s.CASLosses {
		t.Fatalf("attempts %d != wins+losses %d", s.CASAttempts, s.CASWins+s.CASLosses)
	}
	var busy int64
	for w := 0; w < p; w++ {
		busy += int64(w+1) * int64(time.Millisecond)
		if s.WorkerBusyNs[w] != int64(w+1)*int64(time.Millisecond) {
			t.Fatalf("worker %d busy %d", w, s.WorkerBusyNs[w])
		}
		if s.WorkerAttempts[w] != uint64((perWorker+2)/3+(perWorker+1)/3) {
			t.Fatalf("worker %d attempts %d", w, s.WorkerAttempts[w])
		}
	}
	if s.BusyNs != busy {
		t.Fatalf("busy sum %d want %d", s.BusyNs, busy)
	}

	r.Reset()
	if s := r.Snapshot(); s.CASAttempts != 0 || s.BusyNs != 0 || s.Rounds != 0 {
		t.Fatalf("reset left residue: %+v", s)
	}
}

// TestProbeMaxPerRound: the probe must track the per-(cell, round) maximum
// — counts restart when the round advances, and the running max survives.
func TestProbeMaxPerRound(t *testing.T) {
	r := NewRecorder(2)
	r.EnableProbe(4)
	sh := r.Shard(0)

	// Round 1: three executed attempts on cell 2, one on cell 0.
	sh.Claim(2, 1, cw.OutcomeWin)
	sh.Claim(2, 1, cw.OutcomeLoss)
	sh.Claim(2, 1, cw.OutcomeLoss)
	sh.Claim(0, 1, cw.OutcomeWin)
	// Skips never reach the probe.
	for i := 0; i < 10; i++ {
		sh.Claim(2, 1, cw.OutcomeSkip)
	}
	if got := r.Snapshot().MaxCellClaims; got != 3 {
		t.Fatalf("round 1 max = %d, want 3", got)
	}

	// Round 2: cell 2 is touched twice — the count restarted, so the
	// historical max of 3 must survive.
	sh.Claim(2, 2, cw.OutcomeWin)
	sh.Claim(2, 2, cw.OutcomeLoss)
	if got := r.Snapshot().MaxCellClaims; got != 3 {
		t.Fatalf("max after round 2 = %d, want 3", got)
	}

	// Out-of-range cells are counted but not probed.
	sh.Claim(99, 2, cw.OutcomeWin)
	if got := r.Snapshot().MaxCellClaims; got != 3 {
		t.Fatalf("out-of-range touch changed max to %d", got)
	}

	// Reset clears the probe but keeps it enabled.
	r.Reset()
	if got := r.Snapshot().MaxCellClaims; got != 0 {
		t.Fatalf("max after reset = %d", got)
	}
	sh.Claim(1, 1, cw.OutcomeWin)
	if got := r.Snapshot().MaxCellClaims; got != 1 {
		t.Fatalf("probe dead after reset: max = %d", got)
	}
	r.DisableProbe()
	sh.Claim(1, 2, cw.OutcomeWin)
	if got := r.Snapshot().MaxCellClaims; got != 0 {
		t.Fatalf("disabled probe still reporting: %d", got)
	}
}

// TestProbeConcurrent hammers one probe cell from many goroutines in the
// same round; under -race this checks the CAS loops, and the max must
// equal the total number of executed attempts.
func TestProbeConcurrent(t *testing.T) {
	const p, per = 8, 500
	r := NewRecorder(p)
	r.EnableProbe(1)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.Shard(w)
			for i := 0; i < per; i++ {
				sh.Claim(0, 7, cw.OutcomeLoss)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot().MaxCellClaims; got != p*per {
		t.Fatalf("concurrent probe max = %d, want %d", got, p*per)
	}
}

// TestClaimSectionSixBounds is the paper's Section 6 claim in miniature,
// counted through the shards the kernels record into: with W concurrent
// writers on one cell, CAS-LT's executed RMWs are bounded by the writers
// that race past the pre-check before a winner exists (at most W, typically
// far fewer) and the rest are skips, while the gatekeeper executes exactly
// W RMWs — always.
func TestClaimSectionSixBounds(t *testing.T) {
	const writers = 64
	cellRec, gateRec := NewRecorder(writers), NewRecorder(writers)
	var cell cw.Cell
	var gate cw.Gate
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(2 * writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer done.Done()
			start.Wait()
			cellRec.Shard(w).Claim(0, 1, cell.TryClaimOutcome(1))
		}()
		go func() {
			defer done.Done()
			start.Wait()
			gateRec.Shard(w).Claim(0, 1, gate.TryEnterOutcome())
		}()
	}
	start.Done()
	done.Wait()

	g := gateRec.Snapshot()
	if g.CASAttempts != writers || g.PrecheckSkips != 0 {
		t.Fatalf("gatekeeper RMWs = %d, skips = %d, want exactly %d RMWs", g.CASAttempts, g.PrecheckSkips, writers)
	}
	c := cellRec.Snapshot()
	if c.CASAttempts+c.PrecheckSkips != writers {
		t.Fatalf("caslt attempts %d + skips %d != %d claims", c.CASAttempts, c.PrecheckSkips, writers)
	}
	if c.CASWins != 1 || g.CASWins != 1 {
		t.Fatalf("wins caslt=%d gatekeeper=%d, want 1 each", c.CASWins, g.CASWins)
	}
	if c.CASAttempts < 1 || c.CASAttempts > g.CASAttempts {
		t.Fatalf("caslt RMWs = %d, want in [1, %d]", c.CASAttempts, g.CASAttempts)
	}
}
