package kb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sofya/internal/rdf"
)

// randomKB builds a KB with a mix of entity and literal facts.
func randomKB(seed int64, n int) *KB {
	rng := rand.New(rand.NewSource(seed))
	k := New("rand")
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(20)))
		p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(6)))
		var o rdf.Term
		if rng.Intn(4) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(10)))
		} else {
			o = rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(20)))
		}
		k.Add(rdf.NewTriple(s, p, o))
	}
	return k
}

// TestFreezeReadEquivalence asserts that every read accessor answers
// identically — content and order — before and after Freeze. This is
// the property the SPARQL engine's byte-identical-results guarantee
// rests on.
func TestFreezeReadEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		k := randomKB(seed, 300)
		f := randomKB(seed, 300)
		f.Freeze()
		if !f.Frozen() || k.Frozen() {
			t.Fatal("Frozen() state wrong")
		}

		if got, want := f.Size(), k.Size(); got != want {
			t.Fatalf("Size: %d != %d", got, want)
		}
		if !reflect.DeepEqual(f.Relations(), k.Relations()) {
			t.Fatalf("Relations differ:\n%v\n%v", f.Relations(), k.Relations())
		}
		nt := TermID(k.NumTerms())
		for s := TermID(0); s < nt; s++ {
			if !sameIDs(f.PredicatesOfSubject(s), k.PredicatesOfSubject(s)) {
				t.Fatalf("PredicatesOfSubject(%d) differ", s)
			}
			for p := TermID(0); p < nt; p++ {
				if !sameIDs(f.ObjectsOf(s, p), k.ObjectsOf(s, p)) {
					t.Fatalf("ObjectsOf(%d,%d): %v != %v", s, p, f.ObjectsOf(s, p), k.ObjectsOf(s, p))
				}
			}
			for o := TermID(0); o < nt; o++ {
				if !sameIDs(f.PredicatesBetween(s, o), k.PredicatesBetween(s, o)) {
					t.Fatalf("PredicatesBetween(%d,%d) differ", s, o)
				}
			}
		}
		for p := TermID(0); p < nt; p++ {
			if !sameIDs(f.SubjectsWith(p), k.SubjectsWith(p)) {
				t.Fatalf("SubjectsWith(%d) differ", p)
			}
			if f.NumFactsOf(p) != k.NumFactsOf(p) || f.NumSubjectsOf(p) != k.NumSubjectsOf(p) ||
				f.NumObjectsOf(p) != k.NumObjectsOf(p) {
				t.Fatalf("cardinalities of %d differ", p)
			}
			for o := TermID(0); o < nt; o++ {
				if !sameIDs(f.SubjectsOf(p, o), k.SubjectsOf(p, o)) {
					t.Fatalf("SubjectsOf(%d,%d) differ", p, o)
				}
			}
			var gotF, gotK []string
			f.EachFactOf(p, func(s, o TermID) bool {
				gotF = append(gotF, fmt.Sprintf("%d-%d", s, o))
				return true
			})
			k.EachFactOf(p, func(s, o TermID) bool {
				gotK = append(gotK, fmt.Sprintf("%d-%d", s, o))
				return true
			})
			if !reflect.DeepEqual(gotF, gotK) {
				t.Fatalf("EachFactOf(%d) differ", p)
			}
		}
		if !reflect.DeepEqual(f.Triples(), k.Triples()) {
			t.Fatal("Triples differ")
		}
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

// TestFreezeThawOnMutation: adding a fact to a frozen KB thaws it and
// the new fact is visible through every index.
func TestFreezeThawOnMutation(t *testing.T) {
	k := randomKB(7, 100)
	k.Freeze()
	if !k.Frozen() {
		t.Fatal("not frozen")
	}
	if !k.AddIRIs("http://x/new-s", "http://x/new-p", "http://x/new-o") {
		t.Fatal("AddIRIs failed")
	}
	if k.Frozen() {
		t.Fatal("mutation should thaw")
	}
	s, p, o := k.LookupIRI("http://x/new-s"), k.LookupIRI("http://x/new-p"), k.LookupIRI("http://x/new-o")
	if !k.HasFact(s, p, o) {
		t.Fatal("new fact missing after thaw")
	}
	// refreeze and read again
	k.Freeze()
	if !k.HasFact(s, p, o) || len(k.SubjectsOf(p, o)) != 1 {
		t.Fatal("new fact missing after refreeze")
	}
}

// TestFreezeInternAfterFreeze: interning a term without adding facts
// keeps the frozen index valid; lookups of the new id find nothing.
func TestFreezeInternAfterFreeze(t *testing.T) {
	k := randomKB(3, 50)
	k.Freeze()
	id := k.Intern(rdf.NewIRI("http://x/unseen"))
	if !k.Frozen() {
		t.Fatal("Intern should not thaw")
	}
	if len(k.ObjectsOf(id, 0)) != 0 || len(k.SubjectsOf(id, 0)) != 0 ||
		len(k.PredicatesOfSubject(id)) != 0 || k.NumFactsOf(id) != 0 {
		t.Fatal("unseen term must have no facts")
	}
	if k.HasFact(0, id, 0) {
		t.Fatal("unseen predicate must match nothing")
	}
}

// TestFreezeNoTermLookups: NoTerm (a Lookup miss) passed into read
// accessors of a frozen KB must behave like the mutable KB — no match,
// no panic.
func TestFreezeNoTermLookups(t *testing.T) {
	k := randomKB(5, 60)
	k.Freeze()
	s := k.SubjectsWith(k.Relations()[0])[0]
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
	fr := k.fr
	k.Freeze()
	if k.fr != fr {
		t.Fatal("second Freeze rebuilt the index")
	}
}

func TestFreezeEmptyKB(t *testing.T) {
	k := New("empty")
	k.Freeze()
	if len(k.Relations()) != 0 || k.Size() != 0 {
		t.Fatal("empty KB misbehaves frozen")
	}
}
