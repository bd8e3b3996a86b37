package kb

import (
	"fmt"
	"math/rand"
	"sort"

	"sofya/internal/rdf"
)

// refKB is the reference the CSR readers are checked against: a
// brute-force scan over the distinct facts a test added, in the order it
// added them, sorted the way each reader's doc comment promises.
type refKB struct {
	k     *KB // for term order only
	facts []fact
}

// randomTriples draws n triples, with repeats, over a mix of entity and
// literal objects.
func randomTriples(seed int64, n int) []rdf.Triple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]rdf.Triple, n)
	for i := range out {
		s := rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(20)))
		p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(6)))
		var o rdf.Term
		if rng.Intn(4) == 0 {
			o = rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(10)))
		} else {
			o = rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(20)))
		}
		out[i] = rdf.NewTriple(s, p, o)
	}
	return out
}

// randomKB builds a KB from randomTriples.
func randomKB(seed int64, n int) *KB {
	k, _ := randomKBWithRef(seed, n)
	return k
}

// randomKBWithRef builds a KB from randomTriples and the reference over
// the same triples; neither ever reads the KB's index.
func randomKBWithRef(seed int64, n int) (*KB, *refKB) {
	k := New("rand")
	ref := &refKB{k: k}
	seen := make(map[fact]bool)
	for _, t := range randomTriples(seed, n) {
		k.Add(t)
		f := fact{k.Lookup(t.S), k.Lookup(t.P), k.Lookup(t.O)}
		if !seen[f] {
			seen[f] = true
			ref.facts = append(ref.facts, f)
		}
	}
	return k, ref
}

func (r *refKB) less(a, b TermID) bool { return r.k.terms[a].Compare(r.k.terms[b]) < 0 }

// sortedDistinct returns the distinct ids in term order.
func (r *refKB) sortedDistinct(ids []TermID) []TermID {
	seen := make(map[TermID]bool)
	var out []TermID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return r.less(out[i], out[j]) })
	return out
}

// where returns column col of the facts that match, in insertion order.
func (r *refKB) where(col int, match func(f fact) bool) []TermID {
	var out []TermID
	for _, f := range r.facts {
		if match(f) {
			out = append(out, f[col])
		}
	}
	return out
}

func (r *refKB) objectsOf(s, p TermID) []TermID {
	return r.where(2, func(f fact) bool { return f[0] == s && f[1] == p })
}

func (r *refKB) subjectsOf(p, o TermID) []TermID {
	return r.where(0, func(f fact) bool { return f[1] == p && f[2] == o })
}

func (r *refKB) predicatesOfSubject(s TermID) []TermID {
	return r.sortedDistinct(r.where(1, func(f fact) bool { return f[0] == s }))
}

func (r *refKB) predicatesBetween(s, o TermID) []TermID {
	return r.sortedDistinct(r.where(1, func(f fact) bool { return f[0] == s && f[2] == o }))
}

func (r *refKB) relations() []TermID {
	return r.sortedDistinct(r.where(1, func(fact) bool { return true }))
}

// factsOf lists p's facts as (s, o) pairs: subjects in term order,
// objects in insertion order.
func (r *refKB) factsOf(p TermID) [][2]TermID {
	var out [][2]TermID
	for _, f := range r.facts {
		if f[1] == p {
			out = append(out, [2]TermID{f[0], f[2]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return r.less(out[i][0], out[j][0]) })
	return out
}

func (r *refKB) numSubjectsOf(p TermID) int {
	return len(r.sortedDistinct(r.where(0, func(f fact) bool { return f[1] == p })))
}

func (r *refKB) numObjectsOf(p TermID) int {
	return len(r.sortedDistinct(r.where(2, func(f fact) bool { return f[1] == p })))
}

// triples orders every fact by subject term, then predicate term, then
// object insertion order.
func (r *refKB) triples() []rdf.Triple {
	fs := append([]fact(nil), r.facts...)
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i][0] != fs[j][0] {
			return r.less(fs[i][0], fs[j][0])
		}
		return r.less(fs[i][1], fs[j][1])
	})
	out := make([]rdf.Triple, len(fs))
	for i, f := range fs {
		out[i] = rdf.Triple{S: r.k.terms[f[0]], P: r.k.terms[f[1]], O: r.k.terms[f[2]]}
	}
	return out
}

// predicatesBetween collects EachPredicateBetween.
func predicatesBetween(k *KB, s, o TermID) []TermID {
	var out []TermID
	k.EachPredicateBetween(s, o, func(p TermID) bool {
		out = append(out, p)
		return true
	})
	return out
}

// factsOf collects EachFactOf.
func factsOf(k *KB, p TermID) [][2]TermID {
	var out [][2]TermID
	k.EachFactOf(p, func(s, o TermID) bool {
		out = append(out, [2]TermID{s, o})
		return true
	})
	return out
}

// has reports whether triple t is in k.
func has(k *KB, t rdf.Triple) bool {
	return k.HasFact(k.Lookup(t.S), k.Lookup(t.P), k.Lookup(t.O))
}
