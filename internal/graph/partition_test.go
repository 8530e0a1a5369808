package graph

import "testing"

func TestBalanceParseRoundTrip(t *testing.T) {
	for _, b := range Balances {
		got, ok := ParseBalance(b.String())
		if !ok || got != b {
			t.Fatalf("ParseBalance(%q) = %v, %v", b.String(), got, ok)
		}
	}
	if _, ok := ParseBalance("nope"); ok {
		t.Fatal("ParseBalance accepted garbage")
	}
}

// TestArcBoundsInvariants checks, for structured and random graphs, that the
// arc-prefix partitioner covers [0, n) exactly and that every shard's arc
// count is within one max degree of the even share.
func TestArcBoundsInvariants(t *testing.T) {
	empty, err := FromEdges(0, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	isolated, err := FromEdges(10, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*Graph{
		"star":     Star(257),
		"path":     Path(100),
		"grid":     Grid2D(13, 17),
		"complete": Complete(24),
		"rmat":     RMAT(10, 4096, 0.57, 0.19, 0.19, 7),
		"disjoint": Disjoint(Star(63), 4),
		"empty":    empty,
		"isolated": isolated,
	}
	for name, g := range graphs {
		n := g.NumVertices()
		stats := ComputeStats(g)
		for _, p := range []int{1, 2, 3, 4, 8, 16} {
			bounds := ArcBounds(g, p)
			if len(bounds) != p+1 || bounds[0] != 0 || bounds[p] != n {
				t.Fatalf("%s p=%d: bad bounds shape %v", name, p, bounds)
			}
			share := (g.NumArcs() + p - 1) / p
			for w := 0; w < p; w++ {
				lo, hi := bounds[w], bounds[w+1]
				if lo > hi || lo < 0 || hi > n {
					t.Fatalf("%s p=%d w=%d: bad shard [%d,%d)", name, p, w, lo, hi)
				}
				arcs := 0
				for v := lo; v < hi; v++ {
					arcs += g.Degree(uint32(v))
				}
				if arcs > share+stats.MaxDegree {
					t.Fatalf("%s p=%d w=%d: shard has %d arcs, even share %d + max degree %d",
						name, p, w, arcs, share, stats.MaxDegree)
				}
			}
		}
	}
}

// TestArcBoundsStarSkew pins the motivating case: on a star at P=4 the
// vertex split gives one worker the whole hub while the edge split caps
// every shard at the hub's degree plus its share of leaves.
func TestArcBoundsStarSkew(t *testing.T) {
	g := Star(1024) // hub 0 with degree 1023; arcs = 2046
	bounds := ArcBounds(g, 4)
	hubShard := bounds[1] - bounds[0]
	if hubShard >= g.NumVertices()/4 {
		t.Fatalf("edge balance left shard 0 with %d vertices; expected far fewer than n/4=%d",
			hubShard, g.NumVertices()/4)
	}
	// The hub outweighs one even share, so the shard after it may be empty;
	// the leaves must still split near-evenly over the remaining shards.
	leafLo := bounds[2]
	per := (g.NumVertices() - leafLo) / 2
	for w := 2; w < 4; w++ {
		got := bounds[w+1] - bounds[w]
		if got < per-1 || got > per+1 {
			t.Fatalf("leaf shard %d has %d vertices, want ~%d: bounds %v", w, got, per, bounds)
		}
	}
}

func TestStatsSkewFields(t *testing.T) {
	g := Star(100) // hub degree 99, avg degree 198/100
	s := ComputeStats(g)
	if s.MaxDegree != 99 {
		t.Fatalf("MaxDegree = %d, want 99", s.MaxDegree)
	}
	if s.P99Degree != 1 {
		t.Fatalf("P99Degree = %d, want 1 (leaf degree)", s.P99Degree)
	}
	if s.Skew < 49 || s.Skew > 51 {
		t.Fatalf("Skew = %.2f, want ~50", s.Skew)
	}
	r := Complete(10)
	rs := ComputeStats(r)
	if rs.Skew != 1 || rs.P99Degree != 9 {
		t.Fatalf("regular graph: skew=%.2f p99=%d, want 1, 9", rs.Skew, rs.P99Degree)
	}
}
