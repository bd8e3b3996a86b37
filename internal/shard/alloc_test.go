package shard

import (
	"context"
	"fmt"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// alloc_test.go guards the O(k) claim of the streaming ordered merge
// with hard allocation ceilings: the RAND probe over a 20k-fact KB must
// stay within a constant allocation budget — per probe, independent of
// the enumeration size — both unsharded and through a fan-out merge.
// Before the streaming merge, the fanout-2 probe cost ~40k allocs/op
// (every shard row materialized, drained and replayed); the ceilings
// keep that regression from creeping back.

// allocCeiling runs fn repeatedly and fails if its average allocation
// count exceeds limit.
func allocCeiling(t *testing.T, limit float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fn() // warm caches (plan, postings) outside the measured runs
	if got := testing.AllocsPerRun(20, fn); got > limit {
		t.Fatalf("%.1f allocs/op, ceiling %.0f", got, limit)
	}
}

func probeFn(t *testing.T, ep endpoint.Endpoint) func() {
	t.Helper()
	pq, err := ep.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	args := []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(10)}
	return func() {
		if _, err := pq.SelectCtx(context.Background(), args...); err != nil {
			t.Fatal(err)
		}
	}
}

// The unsharded prepared probe: bounded top-k over TermIDs, terms
// materialized only for the emitted rows.
func TestAllocCeilingUnshardedProbe(t *testing.T) {
	allocCeiling(t, 100, probeFn(t, endpoint.NewLocal(benchKB(20000), 1)))
}

// The fan-out probe: borrowed shard streams into the bounded merge —
// the 20k enumerated rows must not contribute per-row allocations.
func TestAllocCeilingMergedProbe(t *testing.T) {
	allocCeiling(t, 500, probeFn(t, Partitioned(benchKB(20000), 2, 1)))
}

// An ORDER BY key that is an expression is evaluated at the merge, once
// per enumerated row, by the engine's lowered closures over the
// borrowed row (sparql.RowKeys), and the selector keeps the key lists
// in one pooled arena: the merge's allocations must not grow with the
// rows it enumerates. On the paper world's first entity relation
// (66 rows) the probe takes 86 objects, the RAND() probe over the same
// rows 83; one object more per row would cost 66. Walking the key's AST
// per row and cloning each key list cost ≈ 5 objects a row (422).
func TestAllocCeilingOrderedMergeKeys(t *testing.T) {
	w := synth.Generate(synth.DefaultSpec())
	rel, _ := entityRelations(t, w)
	if n := w.Yago.NumFactsOf(w.Yago.LookupIRI(rel)); n < 50 {
		t.Fatalf("%s has %d rows, too few to tell per-row allocations", rel, n)
	}
	g := Partitioned(w.Yago, 3, 1)
	text := fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY STRLEN(STR(?y)) ?x LIMIT 6", rel)
	allocCeiling(t, 110, func() {
		if res, err := g.SelectCtx(context.Background(), text); err != nil || len(res.Rows) != 6 {
			t.Fatalf("%v, %v", res, err)
		}
	})
}
