package kb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sofya/internal/rdf"
)

// TestFreezeReadEquivalence asserts that every read accessor answers
// like the brute-force reference over the facts the test added —
// content and order, on a KB whose index the first read builds and on
// one frozen explicitly. This is the property the SPARQL engine's
// byte-identical-results guarantee rests on.
func TestFreezeReadEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, freeze := range []bool{false, true} {
			k, ref := randomKBWithRef(seed, 300)
			if freeze {
				k.Freeze()
			}
			checkAgainstRef(t, k, ref)
		}
	}
}

func checkAgainstRef(t *testing.T, k *KB, ref *refKB) {
	t.Helper()
	if got, want := k.Size(), len(ref.facts); got != want {
		t.Fatalf("Size: %d != %d", got, want)
	}
	if !sameIDs(k.Relations(), ref.relations()) {
		t.Fatalf("Relations differ:\n%v\n%v", k.Relations(), ref.relations())
	}
	nt := TermID(k.NumTerms())
	for s := NoTerm; s < nt; s++ {
		if !sameIDs(k.PredicatesOfSubject(s), ref.predicatesOfSubject(s)) {
			t.Fatalf("PredicatesOfSubject(%d) differ", s)
		}
		for x := NoTerm; x < nt; x++ {
			if !sameIDs(k.ObjectsOf(s, x), ref.objectsOf(s, x)) {
				t.Fatalf("ObjectsOf(%d,%d): %v != %v", s, x, k.ObjectsOf(s, x), ref.objectsOf(s, x))
			}
			if !sameIDs(k.SubjectsOf(s, x), ref.subjectsOf(s, x)) {
				t.Fatalf("SubjectsOf(%d,%d) differ", s, x)
			}
			if !sameIDs(predicatesBetween(k, s, x), ref.predicatesBetween(s, x)) {
				t.Fatalf("EachPredicateBetween(%d,%d) differ", s, x)
			}
		}
		p := s
		if k.NumFactsOf(p) != len(ref.factsOf(p)) || k.NumSubjectsOf(p) != ref.numSubjectsOf(p) ||
			k.NumObjectsOf(p) != ref.numObjectsOf(p) {
			t.Fatalf("cardinalities of %d differ", p)
		}
		if got, want := factsOf(k, p), ref.factsOf(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("EachFactOf(%d): %v != %v", p, got, want)
		}
	}
	if !reflect.DeepEqual(k.Triples(), ref.triples()) {
		t.Fatal("Triples differ")
	}
}

func sameIDs(a, b []TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFreezeThawOnMutation: add → read → add → read on a heap KB; a
// fact added after a read is visible through every index.
func TestFreezeThawOnMutation(t *testing.T) {
	k := randomKB(7, 100)
	k.Freeze()
	if !k.AddIRIs("http://x/new-s", "http://x/new-p", "http://x/new-o") {
		t.Fatal("AddIRIs failed")
	}
	s, p, o := k.LookupIRI("http://x/new-s"), k.LookupIRI("http://x/new-p"), k.LookupIRI("http://x/new-o")
	if !k.HasFact(s, p, o) || len(k.SubjectsOf(p, o)) != 1 || k.NumFactsOf(p) != 1 {
		t.Fatal("new fact missing after a read")
	}
	if !k.AddIRIs("http://x/new-s", "http://x/new-p", "http://x/e1") {
		t.Fatal("second AddIRIs failed")
	}
	if got := k.ObjectsOf(s, p); len(got) != 2 || got[0] != o {
		t.Fatalf("ObjectsOf after the second add = %v", got)
	}
}

// TestFreezeInternAfterFreeze: a term interned after a read carries no
// facts, and the reads after it find nothing for it.
func TestFreezeInternAfterFreeze(t *testing.T) {
	k := randomKB(3, 50)
	k.Freeze()
	id := k.Intern(rdf.NewIRI("http://x/unseen"))
	if len(k.ObjectsOf(id, 0)) != 0 || len(k.SubjectsOf(id, 0)) != 0 ||
		len(k.PredicatesOfSubject(id)) != 0 || k.NumFactsOf(id) != 0 {
		t.Fatal("unseen term must have no facts")
	}
	if k.HasFact(0, id, 0) {
		t.Fatal("unseen predicate must match nothing")
	}
}

// TestFreezeNoTermLookups: NoTerm (a Lookup miss) passed into read
// accessors must match nothing and not panic.
func TestFreezeNoTermLookups(t *testing.T) {
	k := randomKB(5, 60)
	s := factsOf(k, k.Relations()[0])[0][0]
	if k.HasFact(s, NoTerm, 0) || k.HasFact(NoTerm, 0, 0) {
		t.Fatal("NoTerm must match nothing")
	}
	if len(k.ObjectsOf(s, NoTerm)) != 0 || len(k.SubjectsOf(NoTerm, 0)) != 0 ||
		len(k.SubjectsOf(0, NoTerm)) != 0 || len(k.PredicatesOfSubject(NoTerm)) != 0 {
		t.Fatal("NoTerm lookups must be empty")
	}
	if k.NumFactsOf(NoTerm) != 0 || k.NumSubjectsOf(NoTerm) != 0 || k.NumObjectsOf(NoTerm) != 0 {
		t.Fatal("NoTerm cardinalities must be zero")
	}
}

func TestFreezeIdempotent(t *testing.T) {
	k := randomKB(9, 80)
	k.Freeze()
	fr := k.fr.Load()
	k.Freeze()
	k.Relations()
	if k.fr.Load() != fr {
		t.Fatal("second Freeze or a read rebuilt the index")
	}
}

func TestFreezeEmptyKB(t *testing.T) {
	k := New("empty")
	k.Freeze()
	if len(k.Relations()) != 0 || k.Size() != 0 || len(k.Triples()) != 0 {
		t.Fatal("empty KB misbehaves frozen")
	}
}

// TestAddNeverBuildsIndex: loading only appends to the log; a mutation
// after a read drops the index instead of maintaining it.
func TestAddNeverBuildsIndex(t *testing.T) {
	k := randomKB(4, 200)
	if k.fr.Load() != nil {
		t.Fatal("Add built the index")
	}
	k.Relations()
	if k.fr.Load() == nil {
		t.Fatal("a read did not build the index")
	}
	k.AddIRIs("http://x/a", "http://x/p0", "http://x/b")
	if k.fr.Load() != nil {
		t.Fatal("Add after a read kept or rebuilt the index")
	}
}

// TestFirstReadsConcurrent: goroutines racing to the first read of a KB
// that was never frozen build one index and all read it whole (run it
// under -race).
func TestFirstReadsConcurrent(t *testing.T) {
	k, ref := randomKBWithRef(6, 300)
	want := ref.triples()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 && !reflect.DeepEqual(k.Triples(), want) {
				errs <- fmt.Errorf("goroutine %d: Triples differ", g)
			}
			for _, p := range ref.relations() {
				if got, want := k.NumFactsOf(p), len(ref.factsOf(p)); got != want {
					errs <- fmt.Errorf("goroutine %d: NumFactsOf(%d) = %d, want %d", g, p, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
