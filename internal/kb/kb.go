// Package kb implements an in-memory indexed RDF triple store.
//
// A KB interns terms into dense integer IDs and answers reads from
// three CSR indexes — SPO (subject → predicate → objects), POS
// (predicate → object → subjects) and PSO (predicate → subject →
// objects) — which together answer every access pattern the SPARQL
// engine and the SOFYA samplers need: facts of a relation, objects of a
// subject under a relation, subjects pointing at an object, and the set
// of predicates linking two terms.
//
// A KB is not safe for concurrent mutation. Once loaded it may be read
// concurrently from any number of goroutines, which is how the endpoint
// layer uses it.
package kb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sofya/internal/rdf"
)

// TermID is a dense identifier for an interned term. IDs are assigned in
// first-seen order starting at 0; they are stable for the lifetime of the
// KB and meaningless across KBs.
type TermID int32

// NoTerm is returned by lookups that find nothing.
const NoTerm TermID = -1

// fact is one interned triple: subject, predicate, object.
type fact [3]TermID

// KB is an in-memory, indexed collection of triples. The zero value is
// not usable; call New, Load, or OpenSnapshot.
//
// Loading appends facts to an insertion-ordered log; every read is
// served by the CSR index built from that log (freeze.go), on the first
// read after a mutation or by an explicit Freeze. Postings keep
// insertion order, so the answers do not depend on when the index was
// built.
//
// WriteSnapshot serializes the dictionary and the index to a
// checksummed binary snapshot, and OpenSnapshot serves one back by
// memory-mapping it — restart without re-parsing or re-indexing (see
// snapshot.go and ARCHITECTURE.md). A snapshot-backed KB has no log and
// is read-only.
type KB struct {
	name  string
	dict  map[rdf.Term]TermID
	terms []rdf.Term

	// dictOnce guards the lazy dictionary build of snapshot-loaded KBs
	// (ensureDict); concurrent readers may race to the first Lookup.
	dictOnce sync.Once

	// log holds every fact in insertion order and seen the same facts
	// for dedup; seen is nil on a snapshot-backed (read-only) KB.
	log  []fact
	seen map[fact]struct{}

	// fr is the read index, nil until the first read after a mutation;
	// reach it through index(). mu serializes its build.
	fr atomic.Pointer[frozen]
	mu sync.Mutex

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
		seen: make(map[fact]struct{}),
	}
}

// Name returns the KB's label.
func (k *KB) Name() string { return k.name }

// Size returns the number of distinct triples stored.
func (k *KB) Size() int { return k.size }

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

// mutate panics on a snapshot-backed KB and drops the read index of a
// heap KB; every mutation calls it first.
func (k *KB) mutate() {
	if k.seen == nil {
		panic(fmt.Sprintf("kb: %s is served from a snapshot and is read-only", k.name))
	}
	k.fr.Store(nil)
}

// Intern returns the ID for t, assigning a new one if t is unseen. It
// panics when t is unseen and the KB is snapshot-backed.
func (k *KB) Intern(t rdf.Term) TermID {
	k.ensureDict()
	t = canonTerm(t)
	if id, ok := k.dict[t]; ok {
		return id
	}
	k.mutate()
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
// It panics on a snapshot-backed KB.
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
// It panics on a snapshot-backed KB.
func (k *KB) AddFact(s, p, o TermID) bool {
	k.mutate()
	f := fact{s, p, o}
	if _, ok := k.seen[f]; ok {
		return false
	}
	k.seen[f] = struct{}{}
	k.log = append(k.log, f)
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

// ObjectsOf returns the objects o with p(s,o), in insertion order. The
// returned slice is owned by the KB and must not be mutated.
func (k *KB) ObjectsOf(s, p TermID) []TermID {
	fr := k.index()
	if !fr.inRange(s) {
		return nil
	}
	e := fr.findEntry(fr.spoPred, fr.spoOff[s], fr.spoOff[s+1], p)
	if e < 0 {
		return nil
	}
	return fr.spoObj[fr.spoPost[e]:fr.spoPost[e+1]]
}

// SubjectsOf returns the subjects s with p(s,o), in insertion order. The
// returned slice is owned by the KB and must not be mutated.
func (k *KB) SubjectsOf(p, o TermID) []TermID {
	fr := k.index()
	if !fr.inRange(p) {
		return nil
	}
	e := fr.findEntry(fr.posObjE, fr.posOff[p], fr.posOff[p+1], o)
	if e < 0 {
		return nil
	}
	return fr.posSub[fr.posPost[e]:fr.posPost[e+1]]
}

// PredicatesOfSubject returns the distinct predicates p such that s has
// at least one p-fact, sorted by term. The returned slice is owned by
// the KB and must not be mutated.
func (k *KB) PredicatesOfSubject(s TermID) []TermID {
	fr := k.index()
	if !fr.inRange(s) {
		return nil
	}
	return fr.spoPred[fr.spoOff[s]:fr.spoOff[s+1]]
}

// EachPredicateBetween calls fn for every predicate p with p(s,o), in
// sorted-term order, without allocating. fn returning false stops the
// iteration.
func (k *KB) EachPredicateBetween(s, o TermID, fn func(p TermID) bool) {
	fr := k.index()
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
}

// Relations returns every predicate that occurs in at least one fact,
// sorted by term. The returned slice is owned by the KB and must not be
// mutated.
func (k *KB) Relations() []TermID { return k.index().relations }

// EachFactOf calls fn for every fact (s,o) of relation p. Subjects are
// visited in sorted-term order, objects in insertion order. fn returning
// false stops the iteration.
func (k *KB) EachFactOf(p TermID, fn func(s, o TermID) bool) {
	fr := k.index()
	if !fr.inRange(p) {
		return
	}
	for e := fr.psoOff[p]; e < fr.psoOff[p+1]; e++ {
		s := fr.psoSubE[e]
		for _, o := range fr.psoObj[fr.psoPost[e]:fr.psoPost[e+1]] {
			if !fn(s, o) {
				return
			}
		}
	}
}

// NumFactsOf returns the number of facts of relation p, in O(1).
func (k *KB) NumFactsOf(p TermID) int {
	fr := k.index()
	if !fr.inRange(p) {
		return 0
	}
	return int(fr.psoPost[fr.psoOff[p+1]] - fr.psoPost[fr.psoOff[p]])
}

// NumSubjectsOf returns the number of distinct subjects of relation p,
// in O(1).
func (k *KB) NumSubjectsOf(p TermID) int {
	fr := k.index()
	if !fr.inRange(p) {
		return 0
	}
	return int(fr.psoOff[p+1] - fr.psoOff[p])
}

// NumObjectsOf returns the number of distinct objects of relation p, in
// O(1).
func (k *KB) NumObjectsOf(p TermID) int {
	fr := k.index()
	if !fr.inRange(p) {
		return 0
	}
	return int(fr.posOff[p+1] - fr.posOff[p])
}

// Triples materializes every stored triple, ordered by subject term,
// then predicate term, then object insertion order. Intended for
// serialization and tests, not hot paths.
func (k *KB) Triples() []rdf.Triple {
	fr := k.index()
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
