package graph

import "crcwpram/internal/sched"

// Balance selects how a kernel's vertex loops are divided over workers.
//
// The paper's kernels (and ours, by default) split every loop by vertex
// count. On skewed-degree graphs that concentrates arc work: the worker
// whose block contains a hub walks its whole adjacency list while the rest
// of the party idles at the round barrier. BalanceEdge splits the same
// vertex range by *arc* count instead, using the CSR offsets array as the
// prefix-weight array, so each worker walks a near-equal number of arcs.
// Either way a worker owns a contiguous vertex range, so the PRAM round
// semantics (who writes what, exactly-once coverage) are unchanged — only
// the boundary placement moves.
type Balance int

const (
	// BalanceVertex splits loops into equal-count vertex blocks.
	BalanceVertex Balance = iota
	// BalanceEdge splits loops into equal-arc vertex shards.
	BalanceEdge
)

// Balances lists all balance policies in presentation order.
var Balances = []Balance{BalanceVertex, BalanceEdge}

func (b Balance) String() string {
	switch b {
	case BalanceVertex:
		return "vertex"
	case BalanceEdge:
		return "edge"
	default:
		return "unknown-balance"
	}
}

// ParseBalance converts a balance name (as produced by String) back to a
// Balance.
func ParseBalance(s string) (Balance, bool) {
	for _, b := range Balances {
		if b.String() == s {
			return b, true
		}
	}
	return 0, false
}

// ArcBounds splits the graph's vertex range [0, n) into p contiguous shards
// of near-equal arc count: shard w is [bounds[w], bounds[w+1]). The CSR
// offsets array is already the arc-prefix array, so this is p-1 binary
// searches and no graph traversal. Each shard carries at most
// ceil(arcs/p) + maxDegree arcs (a boundary cannot split one vertex's
// adjacency list). Zero-degree vertices ride along with whichever shard
// spans their id.
func ArcBounds(g *Graph, p int) []int {
	return sched.WeightedBounds(g.offsets, p)
}
