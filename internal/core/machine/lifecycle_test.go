package machine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"crcwpram/internal/barrier"
	"crcwpram/internal/race"
	"crcwpram/internal/sched"
)

// settledGoroutines waits for goroutines of earlier tests' closed machines
// to exit and returns the steady goroutine count.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutines polls until the goroutine count drops to want, reporting
// whether it did before the deadline.
func waitGoroutines(want int) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// closeWithin fails the test if Close does not return promptly.
func closeWithin(t *testing.T, m *Machine) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
}

// The caller is worker 0: New(p) starts exactly p-1 helper goroutines,
// running rounds starts none, and Close stops them all.
func TestLifecycleGoroutines(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, k := range barrier.Kinds {
			base := settledGoroutines()
			m := New(p, WithBarrier(k))
			if got := runtime.NumGoroutine() - base; got != p-1 {
				t.Fatalf("p=%d %v: New started %d goroutines, want %d", p, k, got, p-1)
			}
			var n atomic.Int64
			m.ParallelFor(100, func(int) { n.Add(1) })
			m.Team(func(tc *TeamCtx) { tc.For(100, func(int) { n.Add(1) }) })
			if n.Load() != 200 {
				t.Fatalf("p=%d %v: %d visits, want 200", p, k, n.Load())
			}
			if got := runtime.NumGoroutine() - base; got != p-1 {
				t.Fatalf("p=%d %v: %d goroutines after rounds, want %d", p, k, got, p-1)
			}
			closeWithin(t, m)
			if !waitGoroutines(base) {
				t.Fatalf("p=%d %v: %d goroutines after Close, want %d", p, k, runtime.NumGoroutine(), base)
			}
		}
	}
}

// Pool rounds and team loops reuse the machine's one cursor and stealer,
// so an empty round with a pre-built body allocates nothing under any
// policy, inline at P=1 or forked at P=2: a pool round allocates nothing,
// and a team region running 101 loops allocates no more than one running
// a single loop.
func TestPoolRoundAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	forBody := func(i, w int) {}
	idxBody := func(i int) {}
	rangeBody := func(lo, hi, w int) {}
	for _, p := range []int{1, 2} {
		bounds := []int{0, 40, 64}[2-p:]
		for _, policy := range sched.Policies {
			m := New(p, WithPolicy(policy))
			rounds := map[string]func(){
				"ParallelForWorker": func() { m.ParallelForWorker(64, forBody) },
				"ParallelRange":     func() { m.ParallelRange(64, rangeBody) },
				"ParallelBounds":    func() { m.ParallelBounds(bounds, rangeBody) },
				"ParallelSteal":     func() { m.ParallelSteal(64, rangeBody) },
			}
			for name, round := range rounds {
				if a := testing.AllocsPerRun(100, round); a != 0 {
					t.Errorf("p=%d %v %s: %v allocs per round, want 0", p, policy, name, a)
				}
			}
			loops := map[string]func(tc *TeamCtx){
				"For":        func(tc *TeamCtx) { tc.For(64, idxBody) },
				"ForWorker":  func(tc *TeamCtx) { tc.ForWorker(64, forBody) },
				"Range":      func(tc *TeamCtx) { tc.Range(64, rangeBody) },
				"Bounds":     func(tc *TeamCtx) { tc.Bounds(bounds, rangeBody) },
				"StealRange": func(tc *TeamCtx) { tc.StealRange(64, rangeBody) },
			}
			for name, loop := range loops {
				region := func(k int) float64 {
					body := func(tc *TeamCtx) {
						for i := 0; i < k; i++ {
							loop(tc)
						}
					}
					return testing.AllocsPerRun(20, func() { m.Team(body) })
				}
				if one, many := region(1), region(101); many > one {
					t.Errorf("p=%d %v team %s: 101 loops allocate %v per region, 1 loop %v", p, policy, name, many, one)
				}
			}
			m.Close()
		}
	}
}

// mustPanic runs f and fails the test unless it panics with want.
func mustPanic(t *testing.T, what string, want any, f func()) {
	t.Helper()
	defer func() {
		if pv := recover(); pv != want {
			t.Fatalf("%s: recovered %v, want %v", what, pv, want)
		}
	}()
	f()
}

// checkUsable runs a pool round and a team region and checks their
// coverage.
func checkUsable(t *testing.T, m *Machine, what string) {
	t.Helper()
	var n atomic.Int64
	m.ParallelFor(100, func(int) { n.Add(1) })
	m.Team(func(tc *TeamCtx) {
		for r := 0; r < 10; r++ {
			tc.For(64, func(int) { n.Add(1) })
		}
	})
	if n.Load() != 100+10*64 {
		t.Fatalf("%s: machine broken after panic: %d visits, want %d", what, n.Load(), 100+10*64)
	}
}

// A panic only in worker 0's share — which runs on the caller — is
// re-raised on the caller and leaves the machine usable in both modes,
// with metrics off and on.
func TestWorkerZeroPanic(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		for _, p := range []int{2, 4} {
			var opts []Option
			if metrics {
				opts = append(opts, WithMetrics())
			}
			m := New(p, opts...)
			bounds := make([]int, p+1)
			for w := range bounds {
				bounds[w] = 16 * w
			}
			rounds := []struct {
				name  string
				round func(body func(lo, hi, w int))
			}{
				{"ParallelRange", func(body func(lo, hi, w int)) { m.ParallelRange(16*p, body) }},
				{"ParallelBounds", func(body func(lo, hi, w int)) { m.ParallelBounds(bounds, body) }},
				{"ParallelSteal", func(body func(lo, hi, w int)) { m.ParallelSteal(16*p, body) }},
			}
			for _, rd := range rounds {
				// Peers hold their first chunk until worker 0 has run one,
				// so no thief can drain worker 0's share first.
				var entered atomic.Bool
				mustPanic(t, rd.name, "w0 boom", func() {
					rd.round(func(lo, hi, w int) {
						if w == 0 {
							entered.Store(true)
							panic("w0 boom")
						}
						for !entered.Load() {
							runtime.Gosched()
						}
					})
				})
				checkUsable(t, m, rd.name)
			}
			closeWithin(t, m)
			// A team region whose worker 0 panics mid-region while its
			// peers wait at a team barrier, under every barrier kind.
			for _, k := range barrier.Kinds {
				m := New(p, append(opts, WithBarrier(k))...)
				mustPanic(t, "Team "+k.String(), "team w0 boom", func() {
					m.Team(func(tc *TeamCtx) {
						tc.For(100, func(int) {})
						if tc.Worker() == 0 {
							panic("team w0 boom")
						}
						tc.Barrier()
						tc.For(100, func(int) {})
					})
				})
				checkUsable(t, m, "Team "+k.String())
				closeWithin(t, m)
			}
		}
	}
}
