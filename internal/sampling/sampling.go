// Package sampling implements the two instance-sampling strategies of
// SOFYA §2.2 over SPARQL endpoints:
//
//   - Simple Sample Extraction: a pseudo-random sample of subjects of a
//     candidate relation r_sub in K', restricted to facts whose subject
//     (and, for entity objects, object) carries a sameAs link into K;
//     the sampled facts are translated into K identifiers (the set
//     P^rsub_S) and all r-facts of the translated subjects are fetched
//     from K, as required by the PCA denominator.
//
//   - Unbiased Sample Extraction (UBS): a targeted search for subjects
//     x with a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2) over two sibling relations
//     a, b — exactly the contradiction pattern that exposes (i) wrong
//     equivalences (r(x,y1) ∧ r(x,y2) both hold in the other KB) and
//     (ii) wrong subsumptions (r(x,y1) holds but r(x,y2) does not).
//
// Both samplers speak only SPARQL against endpoint.Endpoint values and
// translate entities through a Translator, so they run unchanged against
// in-process KBs and remote HTTP endpoints. Each takes a range of rules
// or sibling pairs at once (SimpleEvidenceEach, ContradictionsEach): the
// sample probes of the range go out as one group of streams
// (endpoint.StreamBatch), each read to its stopping point, and then every
// object fetch of the range as one group of streams, drained
// (endpoint.SelectBatch) — against a remote KB a range costs two requests
// per shard, however many rules it holds; a group fails over whole at its
// open, and is the caller's error once cut after it; against an endpoint
// that does not group a range costs exactly the probes its rules would
// have cost one by one.
package sampling

import (
	"context"
	"fmt"
	"sync"

	"sofya/internal/endpoint"
	"sofya/internal/ilp"
	"sofya/internal/rdf"
	"sofya/internal/sameas"
	"sofya/internal/sparql"
	"sofya/internal/strsim"
)

// Query templates of the sampling stages. Each sampler executes its
// probes through endpoint.PreparedQuery handles compiled once per
// validator (see Validator.prepare), so the per-probe cost is argument
// binding — no query construction, parsing or planning. The object
// probe is shared by Simple Sample Extraction and the UBS check stage:
// with a caching endpoint the two stages deduplicate against each
// other, exactly as their identical query texts used to.
const (
	// TmplSample randomly samples facts of one relation.
	TmplSample = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
	// TmplObjects fetches every object of r(x, ·).
	TmplObjects = "SELECT ?y WHERE { $x $r ?y }"
	// TmplOverlap is the UBS contradiction pattern
	// a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2).
	TmplOverlap = `SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`
)

// Translator converts entity IRIs between the two KBs' namespaces.
type Translator interface {
	// ToK maps a K'-entity IRI to its K equivalent.
	ToK(kPrime string) (string, bool)
	// FromK maps a K-entity IRI to its K' equivalent.
	FromK(k string) (string, bool)
}

// LinkView adapts a sameas.Links to a Translator. If KIsA, the link
// set's A side is the K (head-side) KB; otherwise B is.
type LinkView struct {
	Links *sameas.Links
	KIsA  bool
}

// ToK implements Translator.
func (v LinkView) ToK(kPrime string) (string, bool) {
	if v.KIsA {
		return v.Links.BtoA(kPrime)
	}
	return v.Links.AtoB(kPrime)
}

// FromK implements Translator.
func (v LinkView) FromK(k string) (string, bool) {
	if v.KIsA {
		return v.Links.AtoB(k)
	}
	return v.Links.BtoA(k)
}

// Validator runs sampling-based validation of candidate rules between a
// head-side endpoint K and a body-side endpoint KPrime.
type Validator struct {
	// K is the endpoint of the source KB (rule heads r).
	K endpoint.Endpoint
	// KPrime is the endpoint of the target KB (rule bodies r_sub).
	KPrime endpoint.Endpoint
	// Links translates entities between the KBs.
	Links Translator
	// Matcher aligns literal objects; nil disables literal alignment.
	Matcher *strsim.LiteralMatcher

	// prepared probe handles, compiled lazily once per validator.
	prepOnce     sync.Once
	prepErr      error
	pBodySample  endpoint.PreparedQuery // on KPrime: TmplSample
	pHeadObjects endpoint.PreparedQuery // on K: TmplObjects
	pPrimeObjs   endpoint.PreparedQuery // on KPrime: TmplObjects
	pOverlapBody endpoint.PreparedQuery // on KPrime: TmplOverlap
	pOverlapHead endpoint.PreparedQuery // on K: TmplOverlap
}

// prepare compiles the validator's probe templates against both
// endpoints, once.
func (v *Validator) prepare() error {
	v.prepOnce.Do(func() {
		prep := func(ep endpoint.Endpoint, tmpl string, params ...string) endpoint.PreparedQuery {
			if v.prepErr != nil {
				return nil
			}
			pq, err := ep.Prepare(tmpl, params...)
			if err != nil {
				v.prepErr = fmt.Errorf("sampling: preparing probe against %s: %w", ep.Name(), err)
			}
			return pq
		}
		v.pBodySample = prep(v.KPrime, TmplSample, "r", "n")
		v.pHeadObjects = prep(v.K, TmplObjects, "x", "r")
		v.pPrimeObjs = prep(v.KPrime, TmplObjects, "x", "r")
		v.pOverlapBody = prep(v.KPrime, TmplOverlap, "a", "b", "n")
		v.pOverlapHead = prep(v.K, TmplOverlap, "a", "b", "n")
	})
	return v.prepErr
}

// BodyFact is one sampled r_sub fact translated into K space.
type BodyFact struct {
	// XPrime, YPrime are the original K' terms.
	XPrime, YPrime rdf.Term
	// X is the subject translated into K.
	X string
	// Y is the object translated into K: an IRI term for entities, the
	// original literal for literal objects.
	Y rdf.Term
}

// SampleSet is the outcome of Simple Sample Extraction for one
// candidate: the translated pairs P^rsub_S grouped by subject.
type SampleSet struct {
	// Subjects lists the distinct sampled subject IRIs (K space), in
	// sample order; at most the requested sample size.
	Subjects []string
	// Facts holds every translated r_sub fact of the sampled subjects.
	Facts []BodyFact
	// SkippedNoLink counts fetched facts dropped for missing sameAs
	// links (the paper: such facts are ignored, not punished).
	SkippedNoLink int
}

// window bounds how many candidate facts one sampling query retrieves
// before link-filtering: 40× the sample size, at least 200.
func (v *Validator) window(n int) int {
	w := 40 * n
	if w < 200 {
		w = 200
	}
	return w
}

// SampleBodies performs Simple Sample Extraction for each of rsubs, their
// sample probes one group: for each rsub it samples up to n subject
// entities of rsub in K' whose facts translate into K, and returns all
// their translated rsub facts. A sample window streams row by row — the
// full window is never materialized at once.
func (v *Validator) SampleBodies(rsubs []string, n int) ([]*SampleSet, error) {
	if err := v.prepare(); err != nil {
		return nil, err
	}
	args := make([]sparql.Arg, 2*len(rsubs))
	argSets := make([][]sparql.Arg, len(rsubs))
	for i, rsub := range rsubs {
		args[2*i], args[2*i+1] = sparql.IRIArg(rsub), sparql.IntArg(v.window(n))
		argSets[i] = args[2*i : 2*i+2 : 2*i+2]
	}
	out := make([]*SampleSet, len(rsubs))
	err := endpoint.EachSet(context.Background(), v.pBodySample, argSets, func(i int, rows endpoint.Rows) error {
		out[i] = v.readSample(rows, n)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sampling: body sample for <%s> and %d more: %w", rsubs[0], len(rsubs)-1, err)
	}
	return out, nil
}

// readSample reads one sample window into the translated facts of up to
// n subjects.
func (v *Validator) readSample(rows endpoint.Rows, n int) *SampleSet {
	set := &SampleSet{}
	seen := map[string]bool{}
	factsBySubject := map[string][]BodyFact{}
	for rows.Next() {
		row := rows.Row()
		xp, yp := row[0], row[1]
		if !xp.IsIRI() {
			continue
		}
		x, ok := v.Links.ToK(xp.Value)
		if !ok {
			set.SkippedNoLink++
			continue
		}
		var y rdf.Term
		switch {
		case yp.IsLiteral():
			if v.Matcher == nil {
				set.SkippedNoLink++
				continue
			}
			y = yp
		case yp.IsIRI():
			yk, ok := v.Links.ToK(yp.Value)
			if !ok {
				set.SkippedNoLink++
				continue
			}
			y = rdf.NewIRI(yk)
		default:
			continue
		}
		if !seen[xp.Value] {
			if len(set.Subjects) >= n {
				continue
			}
			seen[xp.Value] = true
			set.Subjects = append(set.Subjects, x)
		}
		factsBySubject[x] = append(factsBySubject[x], BodyFact{XPrime: xp, YPrime: yp, X: x, Y: y})
	}
	for _, x := range set.Subjects {
		set.Facts = append(set.Facts, factsBySubject[x]...)
	}
	return set
}

// objectsOf runs the object probe pq for every (subject, relation) pair
// of args — two arguments a fetch — as one group, drained
// (endpoint.SelectBatch): the fetches are independent, so an endpoint
// that can take them together does — one request, one per shard — and
// any other runs them in order, stopping at the first failure. objs[i] holds the objects of
// pair i. It is the one object fetch of both samplers: Simple Sample
// Extraction needs the full r-facts of its sampled subjects for the PCA
// denominator, the UBS check stage those of its overlap subjects — over
// the same template, so a caching endpoint deduplicates the two stages
// against each other.
func objectsOf(pq endpoint.PreparedQuery, args []sparql.Arg) ([][]rdf.Term, error) {
	if len(args) == 0 {
		return nil, nil
	}
	argSets := make([][]sparql.Arg, len(args)/2)
	for i := range argSets {
		argSets[i] = args[2*i : 2*i+2 : 2*i+2]
	}
	results, err := endpoint.SelectBatch(context.Background(), pq, argSets)
	if err != nil {
		return nil, fmt.Errorf("sampling: objects of %d subjects: %w", len(argSets), err)
	}
	objs := make([][]rdf.Term, len(results))
	for i, res := range results {
		objs[i] = make([]rdf.Term, len(res.Rows))
		for j, row := range res.Rows {
			objs[i][j] = row[0]
		}
	}
	return objs, nil
}

// Rule is one candidate rule Body ⇒ Head, Body a relation of K' and Head
// one of K, with what SimpleEvidenceEach found for it.
type Rule struct {
	Body, Head string
	Ev         *ilp.Evidence
	Set        *SampleSet
}

// SimpleEvidenceEach runs the full Simple Sample Extraction pipeline for
// each of rules with a sample of n subjects, filling in its Ev (one
// PairEvidence per translated body fact) and Set: the sample probes of
// all of them are one group, and so are the head-object fetches of all
// their sampled subjects.
func (v *Validator) SimpleEvidenceEach(rules []Rule, n int) error {
	bodies := make([]string, len(rules))
	for i := range rules {
		bodies[i] = rules[i].Body
	}
	sets, err := v.SampleBodies(bodies, n)
	if err != nil {
		return err
	}
	subjects := 0
	for _, set := range sets {
		subjects += len(set.Subjects)
	}
	args := make([]sparql.Arg, 0, 2*subjects)
	for i, set := range sets {
		head := sparql.IRIArg(rules[i].Head)
		for _, x := range set.Subjects {
			args = append(args, sparql.IRIArg(x), head)
		}
	}
	objs, err := objectsOf(v.pHeadObjects, args)
	if err != nil {
		return err
	}
	for i, set := range sets {
		ev := &ilp.Evidence{}
		headObjs := make(map[string][]rdf.Term, len(set.Subjects))
		for k, x := range set.Subjects {
			headObjs[x] = objs[k]
		}
		objs = objs[len(set.Subjects):]
		for _, f := range set.Facts {
			held := headObjs[f.X]
			ev.Add(ilp.PairEvidence{
				X:              f.X,
				Y:              f.Y.String(),
				HeadHolds:      v.objectMatches(f.Y, held),
				SubjectHasHead: len(held) > 0,
			})
		}
		rules[i].Ev, rules[i].Set = ev, set
	}
	return nil
}

// objectMatches decides whether the translated object y occurs among the
// head objects: IRI equality for entities, literal matching for
// literals.
func (v *Validator) objectMatches(y rdf.Term, objs []rdf.Term) bool {
	if y.IsLiteral() {
		if v.Matcher == nil {
			return false
		}
		_, _, ok := v.Matcher.Best(y, objs)
		return ok
	}
	for _, o := range objs {
		if o == y {
			return true
		}
	}
	return false
}
