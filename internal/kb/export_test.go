package kb

import "sofya/internal/rdf"

// NumTerms returns the number of interned terms.
func (k *KB) NumTerms() int { return len(k.terms) }

// AddInverses adds, for every entity-entity relation p in the KB, the
// inverse facts p⁻(o,s) under the predicate IRI formed by appending
// suffix to p's IRI (e.g. "_inv"). Literal-object facts are skipped
// (literals cannot be subjects). It returns the number of inverse facts
// added.
func (k *KB) AddInverses(suffix string) int {
	var pending []fact
	for _, p := range k.Relations() {
		pt := k.Term(p)
		if !pt.IsIRI() {
			continue
		}
		inv := k.Intern(rdf.NewIRI(pt.Value + suffix))
		k.EachFactOf(p, func(s, o TermID) bool {
			if !k.terms[o].IsLiteral() {
				pending = append(pending, fact{o, inv, s})
			}
			return true
		})
	}
	added := 0
	for _, f := range pending {
		if k.AddFact(f[0], f[1], f[2]) {
			added++
		}
	}
	return added
}
