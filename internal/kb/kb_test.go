package kb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sofya/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func TestInternIsIdempotent(t *testing.T) {
	k := New("t")
	a := k.Intern(iri("a"))
	b := k.Intern(iri("b"))
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if k.Intern(iri("a")) != a {
		t.Fatal("re-interning changed the ID")
	}
	if k.Term(a) != iri("a") {
		t.Fatal("Term(Intern(t)) != t")
	}
	if k.Lookup(iri("c")) != NoTerm {
		t.Fatal("Lookup of unseen term should be NoTerm")
	}
	if k.NumTerms() != 2 {
		t.Fatalf("NumTerms = %d, want 2", k.NumTerms())
	}
}

func TestAddAndIndexes(t *testing.T) {
	k := New("t")
	if !k.AddIRIs("http://x/s1", "http://x/p", "http://x/o1") {
		t.Fatal("first insert not reported new")
	}
	if k.AddIRIs("http://x/s1", "http://x/p", "http://x/o1") {
		t.Fatal("duplicate insert reported new")
	}
	k.AddIRIs("http://x/s1", "http://x/p", "http://x/o2")
	k.AddIRIs("http://x/s2", "http://x/p", "http://x/o1")
	k.AddIRIs("http://x/s1", "http://x/q", "http://x/o1")

	if k.Size() != 4 {
		t.Fatalf("Size = %d, want 4", k.Size())
	}
	s1, p, o1 := k.Lookup(iri("s1")), k.Lookup(iri("p")), k.Lookup(iri("o1"))
	q, s2, o2 := k.Lookup(iri("q")), k.Lookup(iri("s2")), k.Lookup(iri("o2"))

	if !k.HasFact(s1, p, o1) || k.HasFact(s2, q, o1) {
		t.Fatal("HasFact wrong")
	}
	if got := k.ObjectsOf(s1, p); len(got) != 2 || got[0] != o1 || got[1] != o2 {
		t.Fatalf("ObjectsOf = %v", got)
	}
	if got := k.SubjectsOf(p, o1); len(got) != 2 {
		t.Fatalf("SubjectsOf = %v", got)
	}
	if got := k.PredicatesBetween(s1, o1); len(got) != 2 {
		t.Fatalf("PredicatesBetween = %v", got)
	}
	if got := k.PredicatesOfSubject(s1); len(got) != 2 {
		t.Fatalf("PredicatesOfSubject = %v", got)
	}
	if got := k.Relations(); len(got) != 2 {
		t.Fatalf("Relations = %v", got)
	}
	if k.NumFactsOf(p) != 3 || k.NumSubjectsOf(p) != 2 {
		t.Fatalf("NumFactsOf=%d NumSubjectsOf=%d", k.NumFactsOf(p), k.NumSubjectsOf(p))
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	k := New("t")
	bad := rdf.Triple{S: rdf.NewLiteral("s"), P: iri("p"), O: iri("o")}
	if k.Add(bad) {
		t.Fatal("invalid triple accepted")
	}
	if k.Size() != 0 {
		t.Fatal("size changed on rejected triple")
	}
}

func TestHasWithUnseenTerms(t *testing.T) {
	k := New("t")
	k.AddIRIs("http://x/s", "http://x/p", "http://x/o")
	if !k.Has(rdf.NewTriple(iri("s"), iri("p"), iri("o"))) {
		t.Fatal("present triple not found")
	}
	if k.Has(rdf.NewTriple(iri("s"), iri("p"), iri("ghost"))) {
		t.Fatal("absent triple found")
	}
}

func TestEachFactOfStops(t *testing.T) {
	k := New("t")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/c", "http://x/p", "http://x/d")
	n := 0
	k.EachFactOf(k.Lookup(iri("p")), func(s, o TermID) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("iteration did not stop, n=%d", n)
	}
}

func TestEachFactOfDeterministicOrder(t *testing.T) {
	k := New("t")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/2")
	k.AddIRIs("http://x/c", "http://x/p", "http://x/3")
	var order []string
	k.EachFactOf(k.Lookup(iri("p")), func(s, o TermID) bool {
		order = append(order, k.Term(s).Value)
		return true
	})
	want := []string{"http://x/a", "http://x/b", "http://x/c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestStats: the per-relation cardinalities the planner reads, on the
// mutable KB and — through PlanStats, which freezes — on the frozen one.
func TestStats(t *testing.T) {
	k := New("t")
	// p: 3 facts, 2 subjects, 3 objects
	k.AddIRIs("http://x/s1", "http://x/p", "http://x/o1")
	k.AddIRIs("http://x/s1", "http://x/p", "http://x/o2")
	k.AddIRIs("http://x/s2", "http://x/p", "http://x/o3")
	k.Add(rdf.NewTriple(iri("s1"), iri("name"), rdf.NewLiteral("Ada")))
	p := k.Lookup(iri("p"))
	if f, s := k.NumFactsOf(p), k.NumSubjectsOf(p); f != 3 || s != 2 {
		t.Fatalf("mutable: %d facts, %d subjects", f, s)
	}
	stats := k.PlanStats()
	if got := stats[iri("p")]; got != (PredStats{Facts: 3, Subjects: 2, Objects: 3}) {
		t.Fatalf("stats of p = %+v", got)
	}
	if got := stats[iri("name")]; got != (PredStats{Facts: 1, Subjects: 1, Objects: 1}) {
		t.Fatalf("stats of name = %+v", got)
	}
	if len(stats) != 2 {
		t.Fatalf("PlanStats len = %d", len(stats))
	}
}

func TestStatsOfEmptyRelation(t *testing.T) {
	k := New("t")
	p := k.Intern(iri("never"))
	for _, frozen := range []bool{false, true} {
		if frozen {
			k.Freeze()
		}
		if f, s, o := k.PlanFactsOf(p), k.PlanSubjectsOf(p), k.PlanObjectsOf(p); f != 0 || s != 0 || o != 0 {
			t.Fatalf("empty relation (frozen=%v): %d facts, %d subjects, %d objects", frozen, f, s, o)
		}
	}
}

func TestAddInverses(t *testing.T) {
	k := New("t")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.Add(rdf.NewTriple(iri("a"), iri("name"), rdf.NewLiteral("A"))) // literal: no inverse
	n := k.AddInverses("_inv")
	if n != 1 {
		t.Fatalf("added %d inverses, want 1", n)
	}
	pinv := k.LookupIRI("http://x/p_inv")
	if pinv == NoTerm {
		t.Fatal("inverse predicate not interned")
	}
	if !k.HasFact(k.Lookup(iri("b")), pinv, k.Lookup(iri("a"))) {
		t.Fatal("inverse fact missing")
	}
	if k.LookupIRI("http://x/name_inv") != NoTerm && k.NumFactsOf(k.LookupIRI("http://x/name_inv")) > 0 {
		t.Fatal("literal relation received an inverse")
	}
}

func TestLoadRoundTrip(t *testing.T) {
	src := `<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/name> "Ada"@en .
<http://x/b> <http://x/p> <http://x/a> .
`
	k, err := Load("t", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if k.Size() != 3 {
		t.Fatalf("Size = %d", k.Size())
	}
	var sb strings.Builder
	if err := k.WriteNT(&sb); err != nil {
		t.Fatal(err)
	}
	k2, err := Load("t2", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if k2.Size() != k.Size() {
		t.Fatalf("round-trip size %d != %d", k2.Size(), k.Size())
	}
	for _, tr := range k.Triples() {
		if !k2.Has(tr) {
			t.Fatalf("round trip lost %v", tr)
		}
	}
}

// Property: a KB built from any set of triples contains exactly the
// distinct triples inserted, and HasFact agrees with membership.
func TestQuickKBMembership(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New("q")
		type key struct{ s, p, o int }
		want := make(map[key]bool)
		for i := 0; i < int(n%64)+1; i++ {
			s, p, o := rng.Intn(8), rng.Intn(4), rng.Intn(8)
			k.AddIRIs(
				"http://x/s"+string(rune('0'+s)),
				"http://x/p"+string(rune('0'+p)),
				"http://x/o"+string(rune('0'+o)))
			want[key{s, p, o}] = true
		}
		if k.Size() != len(want) {
			return false
		}
		for s := 0; s < 8; s++ {
			for p := 0; p < 4; p++ {
				for o := 0; o < 8; o++ {
					tr := rdf.NewTriple(
						iri("s"+string(rune('0'+s))),
						iri("p"+string(rune('0'+p))),
						iri("o"+string(rune('0'+o))))
					if k.Has(tr) != want[key{s, p, o}] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SPO and POS indexes agree — every (s,p,o) reachable through
// ObjectsOf is reachable through SubjectsOf and vice versa.
func TestQuickIndexConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := New("q")
		for i := 0; i < 80; i++ {
			k.AddIRIs(
				"http://x/s"+string(rune('0'+rng.Intn(10))),
				"http://x/p"+string(rune('0'+rng.Intn(5))),
				"http://x/o"+string(rune('0'+rng.Intn(10))))
		}
		for _, p := range k.Relations() {
			ok := true
			k.EachFactOf(p, func(s, o TermID) bool {
				foundSub := false
				for _, x := range k.SubjectsOf(p, o) {
					if x == s {
						foundSub = true
					}
				}
				foundObj := false
				for _, x := range k.ObjectsOf(s, p) {
					if x == o {
						foundObj = true
					}
				}
				ok = foundSub && foundObj
				return ok
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTermPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Term should panic on out-of-range ID")
		}
	}()
	New("t").Term(3)
}
