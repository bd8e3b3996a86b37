// Package kb implements an in-memory indexed RDF triple store.
//
// A KB interns terms into dense integer IDs and maintains three indexes —
// SPO (subject → predicate → objects), POS (predicate → object → subjects)
// and PSO (predicate → subject → objects) — which together answer every
// access pattern the SPARQL engine and the SOFYA samplers need: facts of a
// relation, objects of a subject under a relation, subjects pointing at an
// object, and the set of predicates linking two terms.
//
// A KB is not safe for concurrent mutation. Once loaded it may be read
// concurrently from any number of goroutines, which is how the endpoint
// layer uses it.
package kb

import (
	"fmt"
	"sort"
	"sync"

	"sofya/internal/rdf"
)

// TermID is a dense identifier for an interned term. IDs are assigned in
// first-seen order starting at 0; they are stable for the lifetime of the
// KB and meaningless across KBs.
type TermID int32

// NoTerm is returned by lookups that find nothing.
const NoTerm TermID = -1

// KB is an in-memory, indexed collection of triples. The zero value is
// not usable; call New, Load, or OpenSnapshot.
//
// A KB has a two-phase lifecycle: it is mutable while loading, and
// Freeze compacts its indexes into flat CSR postings for the serving
// phase (see freeze.go). All read methods work in either phase with
// identical results; mutations transparently thaw a frozen KB.
//
// A frozen KB persists: WriteSnapshot serializes the dictionary and the
// CSR arrays to a checksummed binary snapshot, and OpenSnapshot serves
// one back by memory-mapping it — restart without re-parsing or
// re-indexing (see snapshot.go and ARCHITECTURE.md). Mutating a
// snapshot-backed KB copies everything to the heap first, so the
// lifecycle contract is unchanged.
type KB struct {
	name  string
	dict  map[rdf.Term]TermID
	terms []rdf.Term

	// dictOnce guards the lazy dictionary build of snapshot-loaded KBs
	// (ensureDict); concurrent readers may race to the first Lookup.
	dictOnce sync.Once

	spo map[TermID]map[TermID][]TermID
	pos map[TermID]map[TermID][]TermID
	pso map[TermID]map[TermID][]TermID

	// fr is the compacted read index; nil while mutable.
	fr *frozen

	// snap pins the memory-mapped snapshot a KB from OpenSnapshot
	// serves from; nil for heap-backed KBs.
	snap *snapMapping

	// planStats overrides the statistics the query planner reads; nil
	// means the KB's own counts. Installed by SetPlanStats on partition
	// shards so they plan like the whole KB (see partition.go).
	planStats map[TermID]PredStats

	size int
}

// New returns an empty KB. The name labels the KB in diagnostics and
// endpoint statistics ("yago", "dbpedia", ...).
func New(name string) *KB {
	return &KB{
		name: name,
		dict: make(map[rdf.Term]TermID),
		spo:  make(map[TermID]map[TermID][]TermID),
		pos:  make(map[TermID]map[TermID][]TermID),
		pso:  make(map[TermID]map[TermID][]TermID),
	}
}

// Name returns the KB's label.
func (k *KB) Name() string { return k.name }

// Size returns the number of distinct triples stored.
func (k *KB) Size() int { return k.size }

// NumTerms returns the number of interned terms.
func (k *KB) NumTerms() int { return len(k.terms) }

// canonTerm normalizes a term for interning: an xsd:string literal is
// the same RDF 1.1 term as the plain literal with that lexical form
// (Term.String already renders them identically), so both map to one
// TermID and identity comparisons on IDs agree with term equality.
func canonTerm(t rdf.Term) rdf.Term {
	if t.Kind == rdf.Literal && t.Lang == "" && t.Datatype == rdf.XSDString {
		t.Datatype = ""
	}
	return t
}

// ensureDict materializes the term dictionary. KBs built by New carry
// it from the start; snapshot-loaded KBs defer it to the first
// Lookup/Intern so OpenSnapshot stays O(checksum), not O(map build).
// The sync.Once makes the lazy build safe under concurrent readers.
func (k *KB) ensureDict() {
	k.dictOnce.Do(func() {
		if k.dict != nil {
			return
		}
		dict := make(map[rdf.Term]TermID, len(k.terms))
		for i, t := range k.terms {
			dict[t] = TermID(i)
		}
		k.dict = dict
	})
}

// Intern returns the ID for t, assigning a new one if t is unseen.
func (k *KB) Intern(t rdf.Term) TermID {
	k.ensureDict()
	t = canonTerm(t)
	if id, ok := k.dict[t]; ok {
		return id
	}
	id := TermID(len(k.terms))
	k.dict[t] = id
	k.terms = append(k.terms, t)
	return id
}

// Lookup returns the ID for t, or NoTerm if t was never interned.
func (k *KB) Lookup(t rdf.Term) TermID {
	k.ensureDict()
	if id, ok := k.dict[canonTerm(t)]; ok {
		return id
	}
	return NoTerm
}

// LookupIRI is Lookup for an IRI string.
func (k *KB) LookupIRI(iri string) TermID { return k.Lookup(rdf.NewIRI(iri)) }

// Term returns the term for id. It panics if id is out of range.
func (k *KB) Term(id TermID) rdf.Term {
	if id < 0 || int(id) >= len(k.terms) {
		panic(fmt.Sprintf("kb: term id %d out of range [0,%d)", id, len(k.terms)))
	}
	return k.terms[id]
}

// Add inserts a triple, interning its terms. It reports whether the
// triple was new. Structurally invalid triples are rejected with false.
func (k *KB) Add(t rdf.Triple) bool {
	if !t.Valid() {
		return false
	}
	return k.AddFact(k.Intern(t.S), k.Intern(t.P), k.Intern(t.O))
}

// AddIRIs inserts an entity-entity triple given as three IRI strings.
func (k *KB) AddIRIs(s, p, o string) bool {
	return k.Add(rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI(p), rdf.NewIRI(o)))
}

// AddFact inserts an already-interned fact, reporting whether it was new.
func (k *KB) AddFact(s, p, o TermID) bool {
	k.thaw()
	po, ok := k.spo[s]
	if !ok {
		po = make(map[TermID][]TermID, 4)
		k.spo[s] = po
	}
	objs := po[p]
	for _, x := range objs {
		if x == o {
			return false
		}
	}
	po[p] = append(objs, o)

	os, ok := k.pos[p]
	if !ok {
		os = make(map[TermID][]TermID, 16)
		k.pos[p] = os
	}
	os[o] = append(os[o], s)

	so, ok := k.pso[p]
	if !ok {
		so = make(map[TermID][]TermID, 16)
		k.pso[p] = so
	}
	so[s] = append(so[s], o)

	k.size++
	return true
}

// HasFact reports whether the fact (s,p,o) is present.
func (k *KB) HasFact(s, p, o TermID) bool {
	for _, x := range k.ObjectsOf(s, p) {
		if x == o {
			return true
		}
	}
	return false
}

// Has reports whether the triple is present (terms not yet interned
// trivially make it absent).
func (k *KB) Has(t rdf.Triple) bool {
	s, p, o := k.Lookup(t.S), k.Lookup(t.P), k.Lookup(t.O)
	if s == NoTerm || p == NoTerm || o == NoTerm {
		return false
	}
	return k.HasFact(s, p, o)
}

// ObjectsOf returns the objects o with p(s,o), in insertion order. The
// returned slice is owned by the KB and must not be mutated.
func (k *KB) ObjectsOf(s, p TermID) []TermID {
	if k.fr != nil {
		return k.fr.objectsOf(s, p)
	}
	return k.spo[s][p]
}

// SubjectsOf returns the subjects s with p(s,o), in insertion order. The
// returned slice is owned by the KB and must not be mutated.
func (k *KB) SubjectsOf(p, o TermID) []TermID {
	if k.fr != nil {
		return k.fr.subjectsOf(p, o)
	}
	return k.pos[p][o]
}

// PredicatesOfSubject returns the distinct predicates p such that s has
// at least one p-fact, sorted by term for determinism. The returned
// slice is owned by the KB and must not be mutated.
func (k *KB) PredicatesOfSubject(s TermID) []TermID {
	if k.fr != nil {
		return k.fr.predicatesOfSubject(s)
	}
	po := k.spo[s]
	out := make([]TermID, 0, len(po))
	for p := range po {
		out = append(out, p)
	}
	k.sortByTerm(out)
	return out
}

// PredicatesBetween returns the predicates p with p(s,o), sorted by term.
func (k *KB) PredicatesBetween(s, o TermID) []TermID {
	var out []TermID
	k.EachPredicateBetween(s, o, func(p TermID) bool {
		out = append(out, p)
		return true
	})
	return out
}

// EachPredicateBetween calls fn for every predicate p with p(s,o), in
// sorted-term order, without allocating. fn returning false stops the
// iteration.
func (k *KB) EachPredicateBetween(s, o TermID, fn func(p TermID) bool) {
	if k.fr != nil {
		fr := k.fr
		if !fr.inRange(s) {
			return
		}
		for e := fr.spoOff[s]; e < fr.spoOff[s+1]; e++ {
			for _, x := range fr.spoObj[fr.spoPost[e]:fr.spoPost[e+1]] {
				if x == o {
					if !fn(fr.spoPred[e]) {
						return
					}
					break
				}
			}
		}
		return
	}
	var preds []TermID
	for p, objs := range k.spo[s] {
		for _, x := range objs {
			if x == o {
				preds = append(preds, p)
				break
			}
		}
	}
	k.sortByTerm(preds)
	for _, p := range preds {
		if !fn(p) {
			return
		}
	}
}

// Relations returns every predicate that occurs in at least one fact,
// sorted by term for determinism. The returned slice is owned by the KB
// when frozen and must not be mutated.
func (k *KB) Relations() []TermID {
	if k.fr != nil {
		return k.fr.relations
	}
	out := make([]TermID, 0, len(k.pso))
	for p := range k.pso {
		out = append(out, p)
	}
	k.sortByTerm(out)
	return out
}

// EachFactOf calls fn for every fact (s,o) of relation p. Subjects are
// visited in sorted-term order, objects in insertion order. fn returning
// false stops the iteration.
func (k *KB) EachFactOf(p TermID, fn func(s, o TermID) bool) {
	if k.fr != nil {
		k.fr.eachFactOf(p, fn)
		return
	}
	so := k.pso[p]
	subjects := make([]TermID, 0, len(so))
	for s := range so {
		subjects = append(subjects, s)
	}
	k.sortByTerm(subjects)
	for _, s := range subjects {
		for _, o := range so[s] {
			if !fn(s, o) {
				return
			}
		}
	}
}

// SubjectsWith returns the distinct subjects that have at least one
// p-fact, sorted by term. The returned slice is owned by the KB when
// frozen and must not be mutated.
func (k *KB) SubjectsWith(p TermID) []TermID {
	if k.fr != nil {
		return k.fr.subjectsWith(p)
	}
	so := k.pso[p]
	out := make([]TermID, 0, len(so))
	for s := range so {
		out = append(out, s)
	}
	k.sortByTerm(out)
	return out
}

// NumFactsOf returns the number of facts of relation p. O(1) on a
// frozen KB.
func (k *KB) NumFactsOf(p TermID) int {
	if k.fr != nil {
		return k.fr.numFactsOf(p)
	}
	n := 0
	for _, objs := range k.pso[p] {
		n += len(objs)
	}
	return n
}

// NumSubjectsOf returns the number of distinct subjects of relation p.
// O(1) on a frozen KB.
func (k *KB) NumSubjectsOf(p TermID) int {
	if k.fr != nil {
		return k.fr.numSubjectsOf(p)
	}
	return len(k.pso[p])
}

// NumObjectsOf returns the number of distinct objects of relation p.
// O(1) on a frozen KB.
func (k *KB) NumObjectsOf(p TermID) int {
	if k.fr != nil {
		return k.fr.numObjectsOf(p)
	}
	objs := make(map[TermID]struct{})
	for _, os := range k.pso[p] {
		for _, o := range os {
			objs[o] = struct{}{}
		}
	}
	return len(objs)
}

// Triples materializes every stored triple, ordered by subject term,
// then predicate term, then object insertion order. Intended for
// serialization and tests, not hot paths.
func (k *KB) Triples() []rdf.Triple {
	if fr := k.fr; fr != nil {
		// Snapshot-loaded KBs have no nested-map indexes; enumerate the
		// frozen SPO arrays instead. Entry order is term-rank order and
		// postings keep insertion order, so the result is identical to
		// the map path's sort.
		out := make([]rdf.Triple, 0, k.size)
		byTerm := make([]TermID, len(fr.rank))
		for id, r := range fr.rank {
			byTerm[r] = TermID(id)
		}
		for _, s := range byTerm {
			for e := fr.spoOff[s]; e < fr.spoOff[s+1]; e++ {
				p := fr.spoPred[e]
				for _, o := range fr.spoObj[fr.spoPost[e]:fr.spoPost[e+1]] {
					out = append(out, rdf.Triple{S: k.terms[s], P: k.terms[p], O: k.terms[o]})
				}
			}
		}
		return out
	}
	out := make([]rdf.Triple, 0, k.size)
	subjects := make([]TermID, 0, len(k.spo))
	for s := range k.spo {
		subjects = append(subjects, s)
	}
	k.sortByTerm(subjects)
	for _, s := range subjects {
		preds := make([]TermID, 0, len(k.spo[s]))
		for p := range k.spo[s] {
			preds = append(preds, p)
		}
		k.sortByTerm(preds)
		for _, p := range preds {
			for _, o := range k.spo[s][p] {
				out = append(out, rdf.Triple{S: k.terms[s], P: k.terms[p], O: k.terms[o]})
			}
		}
	}
	return out
}

func (k *KB) sortByTerm(ids []TermID) {
	sort.Slice(ids, func(i, j int) bool {
		return k.terms[ids[i]].Compare(k.terms[ids[j]]) < 0
	})
}

// AddInverses adds, for every entity-entity relation p in the KB, the
// inverse facts p⁻(o,s) under the predicate IRI formed by appending
// suffix to p's IRI (e.g. "_inv"). The paper assumes inverse relations
// have been added to both KBs so that only direct rules need mining.
// Literal-object facts are skipped (literals cannot be subjects).
// It returns the number of inverse facts added.
func (k *KB) AddInverses(suffix string) int {
	type rev struct{ s, p, o TermID }
	var pending []rev
	for _, p := range k.Relations() {
		pt := k.Term(p)
		if !pt.IsIRI() {
			continue
		}
		inv := k.Intern(rdf.NewIRI(pt.Value + suffix))
		k.EachFactOf(p, func(s, o TermID) bool {
			if k.terms[o].IsLiteral() {
				return true
			}
			pending = append(pending, rev{s: o, p: inv, o: s})
			return true
		})
	}
	added := 0
	for _, r := range pending {
		if k.AddFact(r.s, r.p, r.o) {
			added++
		}
	}
	return added
}
