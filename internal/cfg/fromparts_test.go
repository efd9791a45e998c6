package cfg

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestFromPartsMatchesIncremental: FromParts must build exactly the
// graph — or fail with exactly the error, at the same call — that
// AddBlock, SetEntry and AddEdge build one call at a time, on random
// inputs with unknown endpoints, duplicates and bad entries. Each input
// runs twice: in its random order, whose edges FromParts copies, and
// sorted by source, whose edges become the successor store.
func TestFromPartsMatchesIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + r.Intn(6)
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = Block{Label: fmt.Sprintf("L%d", r.Intn(3)), Func: "f", End: r.Intn(9)}
		}
		entry := BlockID(r.Intn(n+2) - 1)
		edges := make([]Edge, r.Intn(12))
		for i := range edges {
			edges[i] = Edge{
				From: BlockID(r.Intn(n+1) - r.Intn(2)),
				To:   BlockID(r.Intn(n+1) - r.Intn(2)),
				Kind: EdgeKind(r.Intn(3)),
				Prob: r.Float64(),
			}
		}
		checkFromParts(t, iter, blocks, entry, edges)
		sorted := slices.Clone(edges)
		slices.SortStableFunc(sorted, func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
		checkFromParts(t, iter, blocks, entry, sorted)
	}
}

// checkFromParts compares FromParts on copies of blocks and edges with
// the incremental build of the same parts.
func checkFromParts(t *testing.T, iter int, blocks []Block, entry BlockID, edges []Edge) {
	t.Helper()
	n := len(blocks)
	want := New()
	for _, b := range blocks {
		id := want.AddBlock(b.Label, b.End)
		want.Block(id).Func = b.Func
	}
	wantBad, wantErr := -1, want.SetEntry(entry)
	for i, e := range edges {
		if wantErr != nil {
			break
		}
		if wantErr = want.AddEdge(e.From, e.To, e.Kind, e.Prob); wantErr != nil {
			wantBad = i
		}
	}

	got, bad, err := FromParts(slices.Clone(blocks), entry, slices.Clone(edges))
	if (err == nil) != (wantErr == nil) || bad != wantBad {
		t.Fatalf("iter %d: FromParts err %v at %d, incremental %v at %d", iter, err, bad, wantErr, wantBad)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("iter %d: error %q, incremental %q", iter, err, wantErr)
		}
		return
	}
	if got.Entry() != want.Entry() || got.NumBlocks() != want.NumBlocks() {
		t.Fatalf("iter %d: entry/blocks %d/%d, incremental %d/%d",
			iter, got.Entry(), got.NumBlocks(), want.Entry(), want.NumBlocks())
	}
	for id := BlockID(0); int(id) < n; id++ {
		if *got.Block(id) != *want.Block(id) {
			t.Fatalf("iter %d: block %d = %+v, incremental %+v", iter, id, *got.Block(id), *want.Block(id))
		}
		if !reflect.DeepEqual(got.Succs(id), want.Succs(id)) || !reflect.DeepEqual(got.Preds(id), want.Preds(id)) {
			t.Fatalf("iter %d: block %d edges differ:\nsuccs %v vs %v\npreds %v vs %v",
				iter, id, got.Succs(id), want.Succs(id), got.Preds(id), want.Preds(id))
		}
	}
	// The capacity caps keep a later AddEdge from writing into a
	// neighbour's window.
	if err := got.AddEdge(0, 0, EdgeReturn, 0); err != nil {
		t.Fatal(err)
	}
	for id := BlockID(1); int(id) < n; id++ {
		if !reflect.DeepEqual(got.Succs(id), want.Succs(id)) || !reflect.DeepEqual(got.Preds(id), want.Preds(id)) {
			t.Fatalf("iter %d: AddEdge on block 0 changed block %d's edges", iter, id)
		}
	}
}

// TestFromPartsKeepsSortedEdges: edges sorted by source are the graph's
// successor store, not copied into one.
func TestFromPartsKeepsSortedEdges(t *testing.T) {
	blocks := make([]Block, 3)
	edges := []Edge{
		{From: 0, To: 1, Kind: EdgeTaken}, {From: 0, To: 2, Kind: EdgeFallthrough},
		{From: 1, To: 2, Kind: EdgeJump}, {From: 2, To: 0, Kind: EdgeJump},
	}
	g, _, err := FromParts(blocks, 0, edges)
	if err != nil {
		t.Fatal(err)
	}
	for k, first := range []int{0, 2, 3} { // block k's first out-edge
		if &g.Succs(BlockID(k))[0] != &edges[first] {
			t.Fatalf("block %d's out-edges are a copy, not the caller's edges", k)
		}
	}
}

// TestFromPartsLargeGraphs: graphs on either side of the 128 blocks
// whose edge windows carve counts on the stack build as the
// incremental calls do, in random and in source order, and fail as
// they do at a duplicate or an unknown block.
func TestFromPartsLargeGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for iter, n := range []int{127, 128, 129, 300} {
		blocks := make([]Block, n)
		for i := range blocks {
			blocks[i] = Block{Label: fmt.Sprintf("L%d", i), End: 1 + r.Intn(9)}
		}
		type key struct {
			from, to BlockID
			kind     EdgeKind
		}
		seen := map[key]bool{}
		var edges []Edge
		for len(edges) < 3*n {
			e := Edge{From: BlockID(r.Intn(n)), To: BlockID(r.Intn(n)), Kind: EdgeKind(r.Intn(5)), Prob: r.Float64()}
			if k := (key{e.From, e.To, e.Kind}); !seen[k] {
				seen[k] = true
				edges = append(edges, e)
			}
		}
		checkFromParts(t, iter, blocks, 0, edges)
		sorted := slices.Clone(edges)
		slices.SortStableFunc(sorted, func(a, b Edge) int { return cmp.Compare(a.From, b.From) })
		checkFromParts(t, iter, blocks, 0, sorted)
		checkFromParts(t, iter, blocks, 0, append(slices.Clone(edges), edges[n]))
		checkFromParts(t, iter, blocks, 0, append(slices.Clone(sorted), Edge{From: 0, To: BlockID(n), Kind: EdgeJump}))
	}
}
