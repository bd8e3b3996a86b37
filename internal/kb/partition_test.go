package kb

import (
	"bytes"
	"fmt"
	"testing"

	"sofya/internal/rdf"
)

func buildTestKB(t *testing.T) *KB {
	t.Helper()
	k := New("part")
	for i := 0; i < 7; i++ {
		s := fmt.Sprintf("http://x/s%d", i)
		k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i))
		k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i+1))
		if i%2 == 0 {
			k.AddIRIs(s, "http://x/q", "http://x/shared")
		}
	}
	return k
}

func TestPartitionCoversAndSeparates(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		src := buildTestKB(t)
		shards := Partition(src, n)
		if len(shards) != n {
			t.Fatalf("Partition(%d) returned %d shards", n, len(shards))
		}
		total := 0
		for i, sh := range shards {
			total += sh.Size()
			want := fmt.Sprintf("part/shard-%d-of-%d", i, n)
			if sh.Name() != want {
				t.Fatalf("shard name = %q, want %q", sh.Name(), want)
			}
			for _, tr := range sh.Triples() {
				if got := SubjectShard(tr.S, n); got != i {
					t.Fatalf("triple %v placed in shard %d, hashes to %d", tr, i, got)
				}
				if !src.Has(tr) {
					t.Fatalf("shard %d holds triple %v the source lacks", i, tr)
				}
			}
		}
		if total != src.Size() {
			t.Fatalf("shards hold %d triples, source %d", total, src.Size())
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	a := Partition(buildTestKB(t), 3)
	b := Partition(buildTestKB(t), 3)
	for i := range a {
		ta, tb := a[i].Triples(), b[i].Triples()
		if len(ta) != len(tb) {
			t.Fatalf("shard %d sizes differ: %d vs %d", i, len(ta), len(tb))
		}
		for j := range ta {
			if ta[j] != tb[j] {
				t.Fatalf("shard %d triple %d differs: %v vs %v", i, j, ta[j], tb[j])
			}
		}
	}
}

// TestPartitionSnapshotsByteStable pins TestSnapshotDeterministic's
// contract for shards: a shard interns the predicates it holds no fact
// of only to carry their planner statistics, and the ids they get must
// not follow the iteration order of the statistics map — that order
// differs from one Partition call to the next within one process.
func TestPartitionSnapshotsByteStable(t *testing.T) {
	src := New("stable")
	for i := 0; i < 24; i++ {
		// One subject per predicate: every shard lacks most predicates.
		src.AddIRIs(fmt.Sprintf("http://x/s%d", i), fmt.Sprintf("http://x/p%d", i), "http://x/o")
	}
	for _, n := range []int{2, 3, 7} {
		a, b := Partition(src, n), Partition(src, n)
		for i := range a {
			if len(a[i].Relations()) == len(src.Relations()) {
				t.Fatalf("n=%d: shard %d holds every predicate, the test needs one it lacks", n, i)
			}
			var wa, wb bytes.Buffer
			if err := a[i].WriteSnapshot(&wa); err != nil {
				t.Fatal(err)
			}
			if err := b[i].WriteSnapshot(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
				t.Fatalf("n=%d: shard %d snapshots differ between two Partition calls", n, i)
			}
		}
	}
}

func TestPartitionPreservesObjectOrder(t *testing.T) {
	src := buildTestKB(t)
	shards := Partition(src, 2)
	s := rdf.NewIRI("http://x/s0")
	p := rdf.NewIRI("http://x/p")
	sh := shards[SubjectShard(s, 2)]
	want := src.ObjectsOf(src.Lookup(s), src.Lookup(p))
	got := sh.ObjectsOf(sh.Lookup(s), sh.Lookup(p))
	if len(want) != len(got) {
		t.Fatalf("object list lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if src.Term(want[i]) != sh.Term(got[i]) {
			t.Fatalf("object %d differs: %v vs %v", i, src.Term(want[i]), sh.Term(got[i]))
		}
	}
}

func TestPlanStatsOverride(t *testing.T) {
	src := buildTestKB(t)
	shards := Partition(src, 3)
	p := rdf.NewIRI("http://x/p")
	srcID := src.Lookup(p)
	wantFacts := src.NumFactsOf(srcID)
	for i, sh := range shards {
		id := sh.Lookup(p)
		if id == NoTerm {
			t.Fatalf("shard %d did not intern predicate %v for plan stats", i, p)
		}
		if got := sh.PlanFactsOf(id); got != wantFacts {
			t.Errorf("shard %d PlanFactsOf = %d, want global %d", i, got, wantFacts)
		}
		if got := sh.PlanSubjectsOf(id); got != src.NumSubjectsOf(srcID) {
			t.Errorf("shard %d PlanSubjectsOf = %d, want global %d", i, got, src.NumSubjectsOf(srcID))
		}
		if got := sh.PlanObjectsOf(id); got != src.NumObjectsOf(srcID) {
			t.Errorf("shard %d PlanObjectsOf = %d, want global %d", i, got, src.NumObjectsOf(srcID))
		}
		if sh.NumFactsOf(id) == wantFacts && len(shards) > 1 && sh.Size() < src.Size() {
			// the override must differ from the local truth somewhere
			// when the shard holds a strict subset; not fatal per shard.
			continue
		}
	}
	// Without an override the plan accessors are the KB's own counts.
	if got := src.PlanFactsOf(srcID); got != wantFacts {
		t.Fatalf("PlanFactsOf without override = %d, want %d", got, wantFacts)
	}
}

func TestSubjectShardRange(t *testing.T) {
	for i := 0; i < 50; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/e%d", i))
		for _, n := range []int{1, 2, 3, 7} {
			if got := SubjectShard(s, n); got < 0 || got >= n {
				t.Fatalf("SubjectShard(%v, %d) = %d out of range", s, n, got)
			}
		}
	}
}

// TestPlanStatsRoundTrip: what PlanStats extracts from the whole KB,
// installed with SetPlanStats on a shard that was written out and parsed
// back, is what that shard then plans with.
func TestPlanStatsRoundTrip(t *testing.T) {
	src := buildTestKB(t)
	want := src.PlanStats()

	// A reloaded shard with the statistics installed plans like the
	// whole KB; without them, it falls back to its local counts.
	shards := Partition(buildTestKB(t), 2)
	var nt bytes.Buffer
	if err := shards[0].WriteNT(&nt); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load("reloaded", &nt)
	if err != nil {
		t.Fatal(err)
	}
	p := rdf.NewIRI("http://x/p")
	if reloaded.PlanFactsOf(reloaded.Lookup(p)) == src.NumFactsOf(src.Lookup(p)) &&
		shards[0].NumFactsOf(shards[0].Lookup(p)) != src.NumFactsOf(src.Lookup(p)) {
		t.Fatal("reloaded shard claims global stats it cannot have")
	}
	reloaded.SetPlanStats(want)
	if got := reloaded.PlanFactsOf(reloaded.Lookup(p)); got != src.NumFactsOf(src.Lookup(p)) {
		t.Fatalf("reloaded shard with the statistics plans with %d facts, want global %d", got, src.NumFactsOf(src.Lookup(p)))
	}
}
