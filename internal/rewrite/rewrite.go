// Package rewrite turns discovered relation alignments into query
// rewritings — the "query-time" use case that motivates SOFYA: a query
// posed against KB K is rewritten to run against KB K' by substituting
// each relation with its aligned counterpart and translating constant
// entities through the sameAs links.
package rewrite

import (
	"fmt"
	"sort"

	"sofya/internal/core"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// Mapping is one usable relation substitution: the K-relation Head may
// be answered by the K'-relation Body.
type Mapping struct {
	Head, Body string
	Confidence float64
	// Equivalent marks double subsumptions; non-equivalent mappings are
	// sound for existential queries but may miss answers.
	Equivalent bool
}

// Rewriter accumulates alignments and rewrites queries.
type Rewriter struct {
	byHead map[string][]Mapping
	links  sampling.Translator
}

// New builds a rewriter; links translates entity constants from K into
// K' (pass nil to keep constants unchanged).
func New(links sampling.Translator) *Rewriter {
	return &Rewriter{byHead: make(map[string][]Mapping), links: links}
}

// Add registers the accepted alignments (rejected ones are ignored).
func (rw *Rewriter) Add(alignments []core.Alignment) {
	for _, al := range alignments {
		if !al.Accepted {
			continue
		}
		rw.byHead[al.Rule.Head] = append(rw.byHead[al.Rule.Head], Mapping{
			Head:       al.Rule.Head,
			Body:       al.Rule.Body,
			Confidence: al.Confidence,
			Equivalent: al.Equivalent,
		})
	}
	for head := range rw.byHead {
		ms := rw.byHead[head]
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].Equivalent != ms[j].Equivalent {
				return ms[i].Equivalent
			}
			if ms[i].Confidence != ms[j].Confidence {
				return ms[i].Confidence > ms[j].Confidence
			}
			return ms[i].Body < ms[j].Body
		})
		rw.byHead[head] = ms
	}
}

// Best returns the preferred substitution for a K-relation.
func (rw *Rewriter) Best(head string) (Mapping, bool) {
	ms := rw.byHead[head]
	if len(ms) == 0 {
		return Mapping{}, false
	}
	return ms[0], true
}

// Rewrite rewrites a query posed against K into one for K'. Every
// concrete predicate must have a mapping; the first missing relation
// aborts with an error. Concrete entity IRIs in subject/object position
// are translated through the sameAs links; untranslatable constants
// abort (their triple could never match in K').
func (rw *Rewriter) Rewrite(q *sparql.Query) (*sparql.Query, error) {
	var firstErr error
	out := q.MapPatterns(func(tp sparql.TriplePattern) sparql.TriplePattern {
		if firstErr != nil {
			return tp
		}
		if !tp.P.IsVar {
			m, ok := rw.Best(tp.P.Term.Value)
			if !ok {
				firstErr = fmt.Errorf("rewrite: no alignment for relation <%s>", tp.P.Term.Value)
				return tp
			}
			tp.P = sparql.Concrete(tp.P.Term)
			tp.P.Term.Value = m.Body
		}
		tp.S = rw.translateTerm(tp.S, &firstErr)
		tp.O = rw.translateTerm(tp.O, &firstErr)
		return tp
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// RewriteString parses, rewrites, and serializes a query.
func (rw *Rewriter) RewriteString(query string) (string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return "", err
	}
	out, err := rw.Rewrite(q)
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

func (rw *Rewriter) translateTerm(pt sparql.PatternTerm, firstErr *error) sparql.PatternTerm {
	if *firstErr != nil || pt.IsVar || !pt.Term.IsIRI() || rw.links == nil {
		return pt
	}
	t, ok := rw.links.FromK(pt.Term.Value)
	if !ok {
		*firstErr = fmt.Errorf("rewrite: no sameAs link for entity <%s>", pt.Term.Value)
		return pt
	}
	pt.Term.Value = t
	return pt
}
