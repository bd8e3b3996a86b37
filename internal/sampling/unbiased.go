package sampling

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"sofya/internal/endpoint"
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
	// Y1 is the object IRI of the first sibling a (a(x,y1) held).
	Y1 string
	// Y2 is the object IRI of the second sibling b (b(x,y2) held,
	// ¬a(x,y2)).
	Y2 string
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

// SiblingPair is one contradiction search: the sibling relations A and B
// sampled for overlap subjects, the relation Check they are checked
// against in the opposite KB, and what ContradictionsEach found.
type SiblingPair struct {
	A, B, Check string
	Res         *UBSResult
}

// ContradictionsEach runs Unbiased Sample Extraction for each sibling
// pair (A, B) against relation Check, filling in its Res. With side ==
// BodySide, A and B are K' relations and Check is a K relation; with side
// == HeadSide the roles are mirrored. It samples up to m overlap subjects
// x: A(x,y1) ∧ B(x,y2) ∧ ¬A(x,y2), translates each row into the opposite
// KB, and evaluates Check(x,y1) / Check(x,y2) there. The overlap probes
// of all the pairs are one group, and the check-object fetches of all
// their overlap subjects go through memo.
//
// Entity-entity relations only: rows with literal objects are skipped
// (literal candidates are validated by the simple sampler alone).
func (v *Validator) ContradictionsEach(ctx context.Context, memo *ObjectMemo, side Side, pairs []SiblingPair, m int) error {
	translate := v.Links.ToK
	if side == HeadSide {
		translate = v.Links.FromK
	}
	g := newTuples(len(pairs), 3)
	for _, p := range pairs {
		g.add(sparql.IRIArg(p.A), sparql.IRIArg(p.B), sparql.IntArg(v.window(m)))
	}
	// Translation alone decides where an overlap stream stops, so each is
	// read to that point and the group closed before any check object is
	// fetched: the streams — over HTTP a response body and server-side
	// enumerations — are not held open across the fetches. sc.found holds,
	// row after row and pair after pair, the rows of every pair, sc.ends
	// where each pair's rows end, and sc.keys the check fetch of each row.
	results := make([]UBSResult, len(pairs))
	sc := newScratch(m * len(pairs))
	defer sc.release()
	err := v.send(ctx, pOverlap, side == BodySide, g.sets, func(i int, rows endpoint.Rows) error {
		out := &results[i]
		pairs[i].Res = out
		check := v.relation(memo, side == HeadSide, pairs[i].Check)
		start := len(sc.found)
		for len(sc.found)-start < m && rows.Next() {
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
			sc.keys = append(sc.keys, objectKey{x, check})
			sc.found = append(sc.found, Contradiction{X: x, Y1: y1, Y2: y2})
		}
		sc.ends = append(sc.ends, len(sc.found))
		return nil
	})
	if err != nil {
		return fmt.Errorf("UBS overlap query (%s,%s) and %d more: %w", pairs[0].A, pairs[0].B, len(pairs)-1, err)
	}
	// What the results keep is one slice of exactly the rows read.
	found, start := slices.Clone(sc.found), 0
	for i, end := range sc.ends {
		if end > start {
			results[i].Rows = found[start:end:end]
		}
		start = end
	}
	objs, err := v.objectsOf(ctx, memo, side == HeadSide, sc.keys)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		for k := range p.Res.Rows {
			c := &p.Res.Rows[k]
			c.CheckY1, c.CheckY2 = containsIRI(objs[0], c.Y1), containsIRI(objs[0], c.Y2)
			objs = objs[1:]
		}
	}
	return nil
}

// HeadSiblings finds, for each of rules, the relations z of K other than
// its Head that also connect the first m entity pairs of its Set — the
// siblings the mirrored UBS strategy searches against the Head: those
// connecting the most pairs, most first, at most keep of them. The
// probes of all the rules, one per pair, go to K as one group, drained
// (send): each answers a row or two, counted as it arrives.
func (v *Validator) HeadSiblings(ctx context.Context, rules []Rule, m, keep int) ([][]string, error) {
	n := 0
	for _, rule := range rules {
		n += min(len(rule.Set.Facts), m)
	}
	g := newTuples(n, 2)
	of := make([]int, 0, n) // the rule g.sets[k] probes for
	for i, rule := range rules {
		start := len(g.sets)
		for _, f := range rule.Set.Facts {
			if len(g.sets)-start >= m {
				break
			}
			if f.Y.IsIRI() {
				g.add(sparql.IRIArg(f.X), sparql.IRIArg(f.Y.Value))
				of = append(of, i)
			}
		}
	}
	counts := make([]map[string]int, len(rules))
	err := v.send(ctx, pBetween, false, g.sets, func(k int, rows endpoint.Rows) error {
		i := of[k]
		if counts[i] == nil {
			counts[i] = map[string]int{}
		}
		for rows.Next() {
			if p := rows.Row()[0]; p.IsIRI() && p.Value != rules[i].Head {
				counts[i][p.Value]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(rules))
	for i, c := range counts {
		sibs := slices.Collect(maps.Keys(c))
		slices.SortFunc(sibs, func(a, b string) int { return cmp.Or(c[b]-c[a], strings.Compare(a, b)) })
		out[i] = slices.Clip(sibs[:min(len(sibs), keep)])
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
