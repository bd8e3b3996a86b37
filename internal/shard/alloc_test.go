package shard

import (
	"context"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sparql"
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
