package cfg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestFromPartsMatchesIncremental: FromParts must build exactly the
// graph — or fail with exactly the error, at the same call — that
// AddBlock, SetEntry and AddEdge build one call at a time, on random
// inputs with unknown endpoints, duplicates and bad entries.
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

		got, bad, err := FromParts(append([]Block(nil), blocks...), entry, edges)
		if (err == nil) != (wantErr == nil) || bad != wantBad {
			t.Fatalf("iter %d: FromParts err %v at %d, incremental %v at %d", iter, err, bad, wantErr, wantBad)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("iter %d: error %q, incremental %q", iter, err, wantErr)
			}
			continue
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
}
