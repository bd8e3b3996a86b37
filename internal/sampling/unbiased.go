package sampling

import (
	"context"
	"fmt"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// Side selects which KB a contradiction search samples from.
type Side uint8

const (
	// BodySide samples sibling relations that live in K' (the rule
	// bodies). This is the paper's presentation: candidates
	// K':r' and K':r'' subsumed by K:r.
	BodySide Side = iota
	// HeadSide samples sibling relations that live in K. It is the same
	// primitive applied to the mirrored problem, used to prune rules
	// whose body is broader than their head (e.g. created ⇒ composerOf
	// is refuted by sampling composerOf/writerOf overlap subjects from
	// the head-side KB).
	HeadSide
)

// Contradiction is one UBS sample row, fully translated into the
// opposite KB's identifier space and checked against the relation under
// test.
type Contradiction struct {
	// X is the overlap subject (identifier space of the checked KB).
	X string
	// Y1 is the object of the first sibling a (a(x,y1) held).
	Y1 rdf.Term
	// Y2 is the object of the second sibling b (b(x,y2) held, ¬a(x,y2)).
	Y2 rdf.Term
	// CheckY1 and CheckY2 report whether the checked relation holds for
	// (x,y1) and (x,y2) in the opposite KB.
	CheckY1, CheckY2 bool
}

// RefutesSubsumption reports whether this row is a PCA counter-example
// to b ⇒ check: check(x,y1) holds but check(x,y2) does not, so the
// subject provably has check-facts and b(x,y2) is uncovered.
func (c Contradiction) RefutesSubsumption() bool { return c.CheckY1 && !c.CheckY2 }

// RefutesReverse reports whether this row is a PCA counter-example to
// check ⇒ a: check(x,y2) holds while a(x,y2) is known false (the query
// guarantees ¬a(x,y2)) and x provably has a-facts (a(x,y1)). When a ⇒
// check is a mined subsumption, this demotes a ⇔ check to a strict
// subsumption — the paper's "wrong equivalence" case.
func (c Contradiction) RefutesReverse() bool { return c.CheckY2 }

// UBSResult aggregates a contradiction search for a sibling pair (a,b)
// against relation check.
type UBSResult struct {
	// Rows are the translated, checked sample rows.
	Rows []Contradiction
	// Sampled counts raw overlap rows inspected before translation
	// filtering. The overlap query streams, so rows past the m-th
	// translated contradiction are never pulled or counted.
	Sampled int
	// Untranslatable counts rows dropped for missing sameAs links.
	Untranslatable int
}

// CounterSubsumption counts rows refuting b ⇒ check.
func (u *UBSResult) CounterSubsumption() int {
	n := 0
	for _, r := range u.Rows {
		if r.RefutesSubsumption() {
			n++
		}
	}
	return n
}

// CounterReverse counts rows refuting check ⇒ a.
func (u *UBSResult) CounterReverse() int {
	n := 0
	for _, r := range u.Rows {
		if r.RefutesReverse() {
			n++
		}
	}
	return n
}

// Contradictions runs Unbiased Sample Extraction for the sibling pair
// (a, b) against relation check. With side == BodySide, a and b are K'
// relations and check is a K relation; with side == HeadSide the roles
// are mirrored. It samples up to m overlap subjects
// x: a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2), translates each row into the opposite
// KB, and evaluates check(x,y1) / check(x,y2) there.
//
// Entity-entity relations only: rows with literal objects are skipped
// (literal candidates are validated by the simple sampler alone).
func (v *Validator) Contradictions(side Side, a, b, check string, m int) (*UBSResult, error) {
	if err := v.prepare(); err != nil {
		return nil, err
	}
	overlap, checkObjs := v.pOverlapBody, v.pHeadObjects
	translate := v.Links.ToK
	if side == HeadSide {
		overlap, checkObjs = v.pOverlapHead, v.pPrimeObjs
		translate = v.Links.FromK
	}
	rows, err := overlap.Stream(context.Background(), sparql.IRIArg(a), sparql.IRIArg(b), sparql.IntArg(v.window(m)))
	if err != nil {
		return nil, fmt.Errorf("sampling: UBS overlap query (%s,%s): %w", a, b, err)
	}
	// Translation alone decides where the stream stops, so it is read to
	// that point and closed before any check object is fetched: the
	// stream — over HTTP a response body and a server-side enumeration —
	// is not held open across the fetches, and the fetches, independent
	// once their subjects are known, go out as one group.
	out := &UBSResult{}
	var xs []string        // distinct overlap subjects, first seen first
	at := map[string]int{} // subject → its index in xs
	for len(out.Rows) < m && rows.Next() {
		out.Sampled++
		row := rows.Row()
		xp, y1p, y2p := row[0], row[1], row[2]
		if !xp.IsIRI() || !y1p.IsIRI() || !y2p.IsIRI() {
			continue
		}
		x, okX := translate(xp.Value)
		y1, okY1 := translate(y1p.Value)
		y2, okY2 := translate(y2p.Value)
		if !okX || !okY1 || !okY2 {
			out.Untranslatable++
			continue
		}
		if _, seen := at[x]; !seen {
			if xs == nil {
				xs = make([]string, 0, m)
			}
			at[x] = len(xs)
			xs = append(xs, x)
		}
		out.Rows = append(out.Rows, Contradiction{X: x, Y1: rdf.NewIRI(y1), Y2: rdf.NewIRI(y2)})
	}
	err = rows.Err()
	rows.Close()
	if err != nil {
		return nil, fmt.Errorf("sampling: UBS overlap query (%s,%s): %w", a, b, err)
	}
	objs, err := objectsOf(checkObjs, check, xs)
	if err != nil {
		return nil, err
	}
	for i := range out.Rows {
		c := &out.Rows[i]
		held := objs[at[c.X]]
		c.CheckY1, c.CheckY2 = containsIRI(held, c.Y1.Value), containsIRI(held, c.Y2.Value)
	}
	return out, nil
}

func containsIRI(objs []rdf.Term, iri string) bool {
	for _, o := range objs {
		if o.IsIRI() && o.Value == iri {
			return true
		}
	}
	return false
}
