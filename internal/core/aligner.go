package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/ilp"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// Query templates of the aligner's own probe sites. Like the sampling
// templates they are prepared once per aligner and bound per stage, so
// the thousands of structurally identical probes an alignment fires
// skip query construction, parsing and planning entirely.
const (
	// tmplPredsBetween asks which predicates connect two entities —
	// the discovery stage's entity probe and, mirrored onto K, the
	// head-sibling (equivalence) probe.
	tmplPredsBetween = "SELECT ?p WHERE { $x ?p $y }"
	// tmplLiteralAttrs scans an entity's literal attributes for the
	// discovery stage's literal matcher.
	tmplLiteralAttrs = "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }"
)

// ProbeTemplate is one probe template an aligner prepares: its source
// text and its class, the probe shape it stands for.
type ProbeTemplate struct {
	Source string
	// Class is one of "sample", "objects", "overlap", "between" and
	// "literals" — the names the benchmark's tracer reports probes by.
	Class string
}

// ProbeTemplates lists every probe template an aligner prepares, so that
// probes can be classified by their template from outside the aligner.
func ProbeTemplates() []ProbeTemplate {
	return []ProbeTemplate{
		{sampling.TmplSample, "sample"},
		{sampling.TmplObjects, "objects"},
		{sampling.TmplOverlap, "overlap"},
		{tmplPredsBetween, "between"},
		{tmplLiteralAttrs, "literals"},
	}
}

// Alignment is the aligner's verdict on one candidate rule r' ⇒ r.
type Alignment struct {
	// Rule is the subsumption hypothesis (body in K', head in K).
	Rule ilp.Rule
	// Accepted reports whether the rule passed threshold, support and
	// UBS pruning.
	Accepted bool
	// Confidence is the configured measure's value; PCA and CWA carry
	// both measures for inspection.
	Confidence float64
	PCA, CWA   float64
	// Support and Evidence are the confirming pairs and the total
	// sampled pairs.
	Support, Evidence int
	// DiscoveryHits is how many discovery pairs the candidate
	// co-occurred with.
	DiscoveryHits int
	// Contradictions counts UBS counter-examples against this rule
	// across all sibling pairs; UBSRows counts the overlap rows
	// inspected with this rule as the prune target. Pruning is decided
	// per sibling pair (see PrunedByUBS); the totals are reported for
	// inspection.
	Contradictions int
	UBSRows        int
	// PrunedByUBS records that some sibling pair produced at least
	// Config.MinContradictions counter-examples covering at least
	// Config.UBSContradictionRatio of that pair's rows.
	PrunedByUBS bool
	// ReverseContradictions counts UBS counter-examples against the
	// reverse rule r ⇒ r' out of ReverseUBSRows inspected;
	// ReverseRefuted is the per-pair demotion verdict.
	ReverseContradictions int
	ReverseUBSRows        int
	ReverseRefuted        bool
	// Equivalent reports that the reverse rule was also validated
	// (only meaningful when Config.CheckEquivalence is set).
	Equivalent bool
	// ReverseConfidence is the reverse rule's confidence when
	// CheckEquivalence ran.
	ReverseConfidence float64
}

// Aligner aligns relations of a source KB K against a target KB K'.
// It is deterministic for fixed endpoint seeds.
type Aligner struct {
	cfg Config
	val *sampling.Validator
	// sem admits endpoint-bound stage tasks; its capacity
	// (Config.Parallelism) is the aligner-wide concurrency bound shared
	// by every pipeline stage of every concurrently aligning relation.
	sem chan struct{}
	// rangeSize is how many items of a stage one stage task takes
	// (runRanges): stageGroup when an endpoint groups, 1 otherwise.
	rangeSize int
	// names label the KBs in emitted rules.
	kName, kPrimeName string

	// prepared probe templates, compiled once in New and bound per
	// stage; prepErr surfaces a failed Prepare at alignment time.
	pDiscover     endpoint.PreparedQuery // on K: sampling.TmplSample
	pEntityPreds  endpoint.PreparedQuery // on K': tmplPredsBetween
	pLiteralAttrs endpoint.PreparedQuery // on K': tmplLiteralAttrs
	pHeadPreds    endpoint.PreparedQuery // on K: tmplPredsBetween
	prepErr       error

	// flipped validates reverse rules r ⇒ r' (val.Flip: roles of K and
	// K' swapped); built once so its prepared probes are shared by every
	// equivalence check.
	flipped *sampling.Validator

	// candidate-generation index (Config.CandidateTopK > 0), built
	// lazily on first alignment so aligners that never align do not pay
	// the per-target-relation sampling pass.
	candOnce   sync.Once
	candErr    error
	candProber *candidates.Prober
}

// New builds an aligner from the head-side endpoint k (the KB whose
// relation arrives in a query), the body-side endpoint kprime (the KB
// to align against), and the sameAs translator between them.
func New(k, kprime endpoint.Endpoint, links sampling.Translator, cfg Config) *Aligner {
	cfg = cfg.normalized()
	a := &Aligner{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Parallelism),
		val: &sampling.Validator{
			K:       k,
			KPrime:  kprime,
			Links:   links,
			Matcher: cfg.Matcher,
		},
		kName:      k.Name(),
		kPrimeName: kprime.Name(),
	}
	a.flipped = a.val.Flip()
	prep := func(ep endpoint.Endpoint, tmpl string, params ...string) endpoint.PreparedQuery {
		if a.prepErr != nil {
			return nil
		}
		pq, err := ep.Prepare(tmpl, params...)
		if err != nil {
			a.prepErr = fmt.Errorf("core: preparing probe against %s: %w", ep.Name(), err)
		}
		return pq
	}
	a.pDiscover = prep(k, sampling.TmplSample, "r", "n")
	a.pEntityPreds = prep(kprime, tmplPredsBetween, "x", "y")
	a.pLiteralAttrs = prep(kprime, tmplLiteralAttrs, "x")
	a.pHeadPreds = prep(k, tmplPredsBetween, "x", "y")
	a.rangeSize = 1
	for _, pq := range []endpoint.PreparedQuery{a.pDiscover, a.pEntityPreds} { // one handle of K, one of K'
		if _, ok := pq.(endpoint.BatchStreamer); ok {
			a.rangeSize = stageGroup
		}
	}
	return a
}

// Config returns the aligner's (normalized) configuration.
func (a *Aligner) Config() Config { return a.cfg }

func (a *Aligner) tracef(format string, args ...any) {
	if a.cfg.Trace != nil {
		a.cfg.Trace(format, args...)
	}
}

// candidate tracks one discovered relation during alignment.
type candidate struct {
	rel  string
	hits int
	ev   *ilp.Evidence
	set  *sampling.SampleSet
}

// AlignRelation finds relations r' of K' with r'(x,y) ⇒ r(x,y), for r a
// relation IRI of K. It returns every validated candidate (accepted or
// not), ordered by decreasing confidence.
//
// The alignment runs as an explicit pipeline — discover → validate →
// UBS → equivalence — whose fan-out stages (per-candidate validation,
// per-sibling-pair contradiction checks, per-rule equivalence tests)
// execute on a worker pool bounded by Config.Parallelism. Results are
// collected by index, so the output is identical to the sequential run
// for deterministic endpoints. Every stage fetches objects through one
// sampling.ObjectMemo, so the alignment asks each object question once.
func (a *Aligner) AlignRelation(r string) ([]Alignment, error) {
	allowed, err := a.prune(r)
	if err != nil {
		return nil, err
	}
	return a.AlignRelationWithin(r, allowed)
}

// AlignRelationWithin is AlignRelation with an injected candidate
// universe: only target relations in allowed survive discovery (nil
// means unrestricted). The experiments' differential harness uses it to
// run the alignment pipeline over an externally computed candidate set;
// AlignRelation itself passes the candidate index's top-k when
// Config.CandidateTopK is on.
func (a *Aligner) AlignRelationWithin(r string, allowed map[string]bool) ([]Alignment, error) {
	if a.prepErr != nil {
		return nil, a.prepErr
	}
	cands, err := a.discover(r, allowed)
	if err != nil {
		return nil, err
	}
	// room for a validation of every candidate and the equivalence check
	// of one: enough for most alignments, whose memo then never grows
	memo := sampling.NewObjectMemo((len(cands) + 1) * a.cfg.SampleSize)
	if err := a.validate(memo, r, cands); err != nil {
		return nil, err
	}
	out, aligns := a.score(r, cands)
	if a.cfg.UseUBS {
		if err := a.applyUBS(memo, r, cands, aligns); err != nil {
			return nil, err
		}
	}
	if a.cfg.CheckEquivalence {
		if err := a.checkEquivalences(memo, r, out); err != nil {
			return nil, err
		}
	}
	sortAlignments(out)
	return out, nil
}

// validate runs Simple Sample Extraction for every discovered
// candidate, fanning the per-candidate endpoint work out over the
// worker pool.
func (a *Aligner) validate(memo *sampling.ObjectMemo, r string, cands []*candidate) error {
	rules := make([]sampling.Rule, len(cands))
	for i, c := range cands {
		rules[i] = sampling.Rule{Body: c.rel, Head: r}
	}
	err := a.runRanges(len(rules), func(lo, hi int) error {
		if err := a.val.SimpleEvidenceEach(memo, rules[lo:hi], a.cfg.SampleSize); err != nil {
			return fmt.Errorf("core: validating %d candidates for %s: %w", hi-lo, r, err)
		}
		return nil
	})
	for i, c := range cands {
		c.ev, c.set = rules[i].Ev, rules[i].Set
	}
	return err
}

// score turns validated candidates into Alignments and applies the
// confidence threshold and support gates. Pure computation — no
// endpoint traffic.
func (a *Aligner) score(r string, cands []*candidate) ([]Alignment, map[string]*Alignment) {
	out := make([]Alignment, 0, len(cands))
	aligns := make(map[string]*Alignment, len(cands))
	for _, c := range cands {
		al := Alignment{
			Rule: ilp.Rule{
				BodyKB: a.kPrimeName, HeadKB: a.kName,
				Body: c.rel, Head: r,
			},
			PCA:           c.ev.PCAConf(),
			CWA:           c.ev.CWAConf(),
			Support:       c.ev.Support(),
			Evidence:      c.ev.Total(),
			DiscoveryHits: c.hits,
		}
		al.Confidence = a.cfg.Measure.Conf(c.ev)
		al.Accepted = al.Confidence >= a.cfg.Threshold && al.Support >= a.cfg.MinSupport
		out = append(out, al)
		aligns[c.rel] = &out[len(out)-1]
	}
	return out, aligns
}

// sortAlignments orders accepted-first, then by decreasing confidence,
// then by body IRI.
func sortAlignments(out []Alignment) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Accepted != out[j].Accepted {
			return out[i].Accepted
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Rule.Body < out[j].Rule.Body
	})
}

// discoveryProbes are the K'-side co-occurrence queries of one
// discovery sample, as the argument tuples of their two templates:
// entity probes on pEntityPreds (which predicates connect the translated
// pair?) and literal scans on pLiteralAttrs, scan i matched against
// lits[i].
type discoveryProbes struct {
	entity  [][]sparql.Arg
	literal [][]sparql.Arg
	lits    []rdf.Term
}

// discoverProbes pulls the discovery sample stream until SampleSize
// translatable probes are collected, then closes it — rows past that
// point are never pulled from the endpoint.
func (a *Aligner) discoverProbes(r string, window int) (discoveryProbes, error) {
	var probes discoveryProbes
	rows, err := a.pDiscover.Stream(context.Background(), sparql.IRIArg(r), sparql.IntArg(window))
	if err != nil {
		return probes, err
	}
	defer rows.Close()
	for len(probes.entity)+len(probes.literal) < a.cfg.SampleSize && rows.Next() {
		row := rows.Row()
		x, y := row[0], row[1]
		if !x.IsIRI() {
			continue
		}
		xp, ok := a.val.Links.FromK(x.Value)
		if !ok {
			continue
		}
		switch {
		case y.IsIRI():
			yp, ok := a.val.Links.FromK(y.Value)
			if !ok {
				continue
			}
			probes.entity = append(probes.entity, []sparql.Arg{sparql.IRIArg(xp), sparql.IRIArg(yp)})
		case y.IsLiteral():
			if a.cfg.Matcher == nil {
				continue
			}
			probes.literal = append(probes.literal, []sparql.Arg{sparql.IRIArg(xp)})
			probes.lits = append(probes.lits, y)
		}
	}
	return probes, rows.Err()
}

// ensureCandidates obtains the candidate index over the target
// inventory, once per aligner: from Config.CandidateIndexCache when one
// is shared (so co-targeted aligners resolve the index once), through a
// private cache otherwise — the cache handles sidecar restore and the
// build fallback either way. The resolution holds one admission-gate
// slot like any endpoint-bound stage; a build fans its sampling out
// over its own Config.Parallelism-bounded pool, which stands in for the
// gate during this one-time pass.
func (a *Aligner) ensureCandidates() (*candidates.Prober, error) {
	a.candOnce.Do(func() {
		a.sem <- struct{}{}
		defer func() { <-a.sem }()
		cache := a.cfg.CandidateIndexCache
		if cache == nil {
			cache = NewIndexCache()
			cache.Trace = a.cfg.Trace
		}
		ix, err := cache.Get(context.Background(), a.val.KPrime, a.val.Links, a.cfg.CandidateIndexPath, candidates.Options{
			MaxPostings: a.cfg.CandidateMaxPostings,
			Parallelism: a.cfg.Parallelism,
		})
		if err != nil {
			a.candErr = err
			return
		}
		a.candProber, a.candErr = candidates.NewProber(ix, a.val.K)
	})
	return a.candProber, a.candErr
}

// prune computes the allowed candidate set for r from the candidate
// index — or nil (no restriction) when pruning is off.
func (a *Aligner) prune(r string) (map[string]bool, error) {
	if a.cfg.CandidateTopK <= 0 {
		return nil, nil
	}
	prober, err := a.ensureCandidates()
	if err != nil {
		return nil, fmt.Errorf("core: candidate index: %w", err)
	}
	a.sem <- struct{}{}
	top, err := prober.TopK(r, a.cfg.CandidateTopK)
	<-a.sem
	if err != nil {
		return nil, fmt.Errorf("core: candidate probe for <%s>: %w", r, err)
	}
	allowed := make(map[string]bool, len(top))
	for _, c := range top {
		allowed[c.Rel] = true
	}
	a.tracef("candidates: top-%d pruned universe for %s holds %d relations",
		a.cfg.CandidateTopK, r, len(allowed))
	return allowed, nil
}

// discover samples r-facts from K, translates them into K', and
// collects candidate predicates by co-occurrence. The sample window is
// consumed as a stream: once SampleSize translatable probes are
// found, the stream closes and the endpoint stops producing — the
// window rows past that point are never materialized. The collected
// probes are independent, so each kind goes to K' as one group
// (endpoint.SelectBatch) — a stage task of its own, when there is any of
// that kind — and the hits are counted once both are back.
func (a *Aligner) discover(r string, allowed map[string]bool) ([]*candidate, error) {
	window := 40 * a.cfg.SampleSize
	if window < 200 {
		window = 200
	}
	// the sample stream occupies an endpoint like any stage task
	a.sem <- struct{}{}
	probes, err := a.discoverProbes(r, window)
	<-a.sem
	if err != nil {
		return nil, fmt.Errorf("core: discovery sample for <%s>: %w", r, err)
	}

	// One group per kind of probe, one stage task per group that has
	// any: a relation's probes are mostly of one kind, and often none.
	groups := [2]struct {
		pq      endpoint.PreparedQuery
		argSets [][]sparql.Arg
		results []*sparql.Result
	}{{pq: a.pEntityPreds, argSets: probes.entity}, {pq: a.pLiteralAttrs, argSets: probes.literal}}
	run := groups[:]
	if len(probes.entity) == 0 {
		run = run[1:]
	}
	if len(probes.literal) == 0 {
		run = run[:len(run)-1]
	}
	err = a.runStage(len(run), func(i int) error {
		var err error
		run[i].results, err = endpoint.SelectBatch(context.Background(), run[i].pq, run[i].argSets)
		return err
	})
	if err != nil {
		return nil, err
	}
	hits := map[string]int{}
	count := func(rel rdf.Term) {
		if rel.IsIRI() && (allowed == nil || allowed[rel.Value]) {
			hits[rel.Value]++
		}
	}
	for _, res := range groups[0].results {
		for _, row := range res.Rows {
			count(row[0])
		}
	}
	for i, res := range groups[1].results {
		for _, row := range res.Rows {
			if ok, _ := a.cfg.Matcher.Match(probes.lits[i], row[1]); ok {
				count(row[0])
			}
		}
	}

	cands := make([]*candidate, 0, len(hits))
	for rel, h := range hits {
		cands = append(cands, &candidate{rel: rel, hits: h})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hits != cands[j].hits {
			return cands[i].hits > cands[j].hits
		}
		return cands[i].rel < cands[j].rel
	})
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands, nil
}

// applyUBS runs both contradiction-search strategies and prunes. The
// endpoint-heavy contradiction searches fan out over the worker pool;
// their results are applied sequentially in pair order, so the
// aggregated counters and verdicts match the sequential run exactly.
func (a *Aligner) applyUBS(memo *sampling.ObjectMemo, r string, cands []*candidate, aligns map[string]*Alignment) error {
	// provisional = accepted so far (confidence+support); only those
	// are worth the extra queries.
	var provisional []*candidate
	for _, c := range cands {
		if aligns[c.rel].Accepted && a.entityCandidate(c) {
			provisional = append(provisional, c)
		}
	}

	ubs := func(side sampling.Side, pairs []sampling.SiblingPair) error {
		return a.runRanges(len(pairs), func(lo, hi int) error {
			return a.val.ContradictionsEach(memo, side, pairs[lo:hi], a.cfg.UBSSampleSize)
		})
	}

	if a.cfg.UBSBodySiblings {
		var pairs []sampling.SiblingPair
		for i := range provisional {
			for j := range provisional {
				if i != j {
					pairs = append(pairs, sampling.SiblingPair{A: provisional[i].rel, B: provisional[j].rel, Check: r})
				}
			}
		}
		if err := ubs(sampling.BodySide, pairs); err != nil {
			return err
		}
		for _, p := range pairs {
			res, rA, rB := p.Res, p.A, p.B
			// rows refute rB ⇒ r (subsumption) and r ⇒ rA (reverse)
			aligns[rB].Contradictions += res.CounterSubsumption()
			aligns[rB].UBSRows += len(res.Rows)
			if a.pairRefutes(res.CounterSubsumption(), len(res.Rows)) {
				aligns[rB].PrunedByUBS = true
				a.tracef("UBS body-pair (%s, %s) refutes %s ⇒ %s: %d/%d rows",
					rA, rB, rB, r, res.CounterSubsumption(), len(res.Rows))
			}
			aligns[rA].ReverseContradictions += res.CounterReverse()
			aligns[rA].ReverseUBSRows += len(res.Rows)
			if a.pairRefutes(res.CounterReverse(), len(res.Rows)) {
				aligns[rA].ReverseRefuted = true
			}
		}
	}

	if a.cfg.UBSHeadSiblings {
		// Two stages: the siblings of every candidate, then the
		// contradiction search of every (candidate, sibling), candidate
		// after candidate.
		siblings := make([][]string, len(provisional))
		err := a.runRanges(len(provisional), func(lo, hi int) error {
			return a.headSiblings(r, provisional[lo:hi], siblings[lo:hi])
		})
		if err != nil {
			return err
		}
		var pairs []sampling.SiblingPair
		for i, c := range provisional {
			for _, z := range siblings[i] {
				pairs = append(pairs, sampling.SiblingPair{A: r, B: z, Check: c.rel})
			}
		}
		if err := ubs(sampling.HeadSide, pairs); err != nil {
			return err
		}
		for _, p := range pairs {
			res, al := p.Res, aligns[p.Check]
			// rows with check(x,y2) refute c.rel ⇒ r
			al.Contradictions += res.CounterReverse()
			al.UBSRows += len(res.Rows)
			if a.pairRefutes(res.CounterReverse(), len(res.Rows)) {
				al.PrunedByUBS = true
				a.tracef("UBS head-pair (%s, %s) refutes %s ⇒ %s: %d/%d rows",
					r, p.B, p.Check, r, res.CounterReverse(), len(res.Rows))
			}
		}
	}

	for _, c := range cands {
		if aligns[c.rel].PrunedByUBS {
			aligns[c.rel].Accepted = false
		}
	}
	return nil
}

// pairRefutes applies the contradiction gate to one sibling pair's
// result: an absolute minimum of counter-examples plus a minimum
// fraction of the pair's inspected rows (residual cross-KB value noise
// produces isolated counter-examples even for true rules, because the
// overlap query adversely selects disagreement).
func (a *Aligner) pairRefutes(contradictions, rows int) bool {
	if contradictions < a.cfg.MinContradictions {
		return false
	}
	return float64(contradictions) >= a.cfg.UBSContradictionRatio*float64(rows)
}

// entityCandidate reports whether the candidate's sampled objects are
// entities (UBS applies only to entity-entity relations).
func (a *Aligner) entityCandidate(c *candidate) bool {
	if c.set == nil || len(c.set.Facts) == 0 {
		return false
	}
	return c.set.Facts[0].Y.IsIRI()
}

// headSiblings discovers, for each of cands, the relations z of K (z ≠ r)
// that also cover the candidate's translated sample pairs — the sibling
// set for the mirrored UBS strategy — into out. The probes of all of
// them, one per sampled pair, go to K as one group.
func (a *Aligner) headSiblings(r string, cands []*candidate, out [][]string) error {
	probes := 0
	for _, c := range cands {
		probes += min(len(c.set.Facts), a.cfg.UBSSampleSize)
	}
	args := make([]sparql.Arg, 0, 2*probes)
	argSets := make([][]sparql.Arg, 0, probes)
	ends := make([]int, len(cands)) // the probes of cands[i] end before argSets[ends[i]]
	for i, c := range cands {
		start := len(argSets)
		for _, f := range c.set.Facts {
			if len(argSets)-start >= a.cfg.UBSSampleSize {
				break
			}
			if f.Y.IsIRI() {
				args = append(args, sparql.IRIArg(f.X), sparql.IRIArg(f.Y.Value))
				argSets = append(argSets, args[len(args)-2:len(args):len(args)])
			}
		}
		ends[i] = len(argSets)
	}
	type sib struct {
		rel string
		n   int
	}
	// c is the candidate whose probes are being read, counts what they
	// have found for it; its siblings are ranked when its last probe is in.
	c, counts := 0, map[string]int{}
	return endpoint.EachSet(context.Background(), a.pHeadPreds, argSets, func(k int, rows endpoint.Rows) error {
		for rows.Next() {
			if p := rows.Row()[0]; p.IsIRI() && p.Value != r {
				counts[p.Value]++
			}
		}
		for ; c < len(cands) && ends[c] <= k+1; c++ {
			sibs := make([]sib, 0, len(counts))
			for rel, n := range counts {
				sibs = append(sibs, sib{rel, n})
			}
			clear(counts)
			sort.Slice(sibs, func(i, j int) bool {
				if sibs[i].n != sibs[j].n {
					return sibs[i].n > sibs[j].n
				}
				return sibs[i].rel < sibs[j].rel
			})
			if len(sibs) > ubsMaxSiblings {
				sibs = sibs[:ubsMaxSiblings]
			}
			out[c] = make([]string, len(sibs))
			for j, s := range sibs {
				out[c][j] = s.rel
			}
		}
		return nil
	})
}

// checkEquivalences validates the reverse rule r ⇒ r' for accepted
// alignments through the aligner's flipped validator (roles of K and
// K' swapped), over the worker pool.
func (a *Aligner) checkEquivalences(memo *sampling.ObjectMemo, r string, out []Alignment) error {
	var accepted []int
	var rules []sampling.Rule
	for i := range out {
		if out[i].Accepted {
			accepted = append(accepted, i)
			rules = append(rules, sampling.Rule{Body: r, Head: out[i].Rule.Body})
		}
	}
	err := a.runRanges(len(rules), func(lo, hi int) error {
		return a.flipped.SimpleEvidenceEach(memo, rules[lo:hi], a.cfg.SampleSize)
	})
	if err != nil {
		return err
	}
	for k, i := range accepted {
		al, ev := &out[i], rules[k].Ev
		al.ReverseConfidence = a.cfg.Measure.Conf(ev)
		al.Equivalent = al.ReverseConfidence >= a.cfg.Threshold &&
			ev.Support() >= a.cfg.MinSupport &&
			!al.ReverseRefuted
	}
	return nil
}

// Accepted filters alignments down to the accepted ones.
func Accepted(all []Alignment) []Alignment {
	out := make([]Alignment, 0, len(all))
	for _, al := range all {
		if al.Accepted {
			out = append(out, al)
		}
	}
	return out
}
