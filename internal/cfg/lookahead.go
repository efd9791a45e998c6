package cfg

import "slices"

// Lookahead is a graph's k-edge look-ahead, computed once: for every
// block, the blocks at most k edges ahead of its exit — the candidate
// set of the paper's k-edge pre-decompression (Section 4): "a basic
// block is decompressed when there are at most k edges that need to be
// traversed before it could be reached". A row holds its own block
// only if a cycle of length ≤ k returns to it, at that cycle's length.
// Rows are sorted by distance, then ID. The table is immutable and
// holds no reference to the graph, so any number of goroutines may
// read it.
type Lookahead struct {
	off  []int // row b is ids[off[b]:off[b+1]]
	ids  []BlockID
	dist []int // dist[i] is the number of edges to ids[i]
}

// Lookahead builds the graph's k-edge look-ahead table by one
// breadth-first search per block. Every row is empty when k <= 0.
func (g *Graph) Lookahead(k int) *Lookahead {
	la := &Lookahead{off: make([]int, len(g.blocks)+1)}
	seen := make([]int, len(g.blocks)) // seen[b] == from+1: b is in from's row
	var level []BlockID
	for from := range g.blocks {
		level = append(level[:0], BlockID(from))
		for d := 1; d <= k && len(level) > 0; d++ {
			start := len(la.ids)
			for _, cur := range level {
				for _, e := range g.succs[cur] {
					if seen[e.To] != from+1 {
						seen[e.To] = from + 1
						la.ids = append(la.ids, e.To)
						la.dist = append(la.dist, d)
					}
				}
			}
			slices.Sort(la.ids[start:])
			level = append(level[:0], la.ids[start:]...)
		}
		la.off[from+1] = len(la.ids)
	}
	return la
}

// Row returns the blocks at most k edges ahead of the exit of block
// from, and each one's distance in edges; both are nil when from is not
// a block of the graph. The slices are the table's own: do not modify
// them.
func (la *Lookahead) Row(from BlockID) (ids []BlockID, dist []int) {
	if from < 0 || int(from) >= len(la.off)-1 {
		return nil, nil
	}
	lo, hi := la.off[from], la.off[from+1]
	return la.ids[lo:hi:hi], la.dist[lo:hi:hi]
}
