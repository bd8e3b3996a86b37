package core

import (
	"context"
	"fmt"
	"sort"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/flight"
	"sofya/internal/ilp"
	"sofya/internal/sampling"
)

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
	// val sends every probe of the aligner; prepErr, its failed
	// preparation, surfaces at alignment time.
	val     *sampling.Validator
	prepErr error
	// sem admits endpoint-bound stage tasks; its capacity
	// (Config.Parallelism) is the aligner-wide concurrency bound shared
	// by every pipeline stage of every concurrently aligning relation.
	sem chan struct{}
	// rangeSize is how many items of a stage one stage task takes
	// (runRanges): stageGroup when the endpoints group (val.Groups), 1
	// otherwise.
	rangeSize int

	// cands holds the candidate prober (Config.CandidateTopK > 0), under
	// struct{}{}: built on first alignment so aligners that never align
	// do not pay the per-target-relation sampling pass.
	cands flight.Memo[struct{}, *candidates.Prober]
}

// New builds an aligner from the head-side endpoint k (the KB whose
// relation arrives in a query), the body-side endpoint kprime (the KB
// to align against), and the sameAs translator between them.
func New(k, kprime endpoint.Endpoint, links sampling.Translator, cfg Config) *Aligner {
	cfg = cfg.normalized()
	a := &Aligner{cfg: cfg, sem: make(chan struct{}, cfg.Parallelism), rangeSize: 1}
	a.val, a.prepErr = sampling.NewValidator(k, kprime, links, cfg.Matcher)
	if a.prepErr == nil && a.val.Groups() {
		a.rangeSize = stageGroup
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

// AlignRelation is AlignRelationContext under context.Background(). It,
// AlignRelations and their Cache twins stay for the benchmark's names.
func (a *Aligner) AlignRelation(r string) ([]Alignment, error) {
	return a.AlignRelationContext(context.Background(), r)
}

// AlignRelationContext finds relations r' of K' with r'(x,y) ⇒ r(x,y),
// for r a relation IRI of K. It returns every validated candidate
// (accepted or not), ordered by decreasing confidence.
//
// The alignment runs as an explicit pipeline — discover → validate →
// UBS → equivalence — whose fan-out stages (per-candidate validation,
// per-sibling-pair contradiction checks, per-rule equivalence tests)
// execute on a worker pool bounded by Config.Parallelism. Results are
// collected by index, so the output is identical to the sequential run
// for deterministic endpoints. Every stage fetches objects through one
// sampling.ObjectMemo, so the alignment asks each object question once.
// Every probe goes out under ctx; once it ends, the alignment fails.
func (a *Aligner) AlignRelationContext(ctx context.Context, r string) ([]Alignment, error) {
	if a.prepErr != nil {
		return nil, a.prepErr
	}
	allowed, err := a.prune(ctx, r)
	if err != nil {
		return nil, err
	}
	return a.AlignRelationWithin(ctx, r, allowed)
}

// AlignRelationWithin is AlignRelationContext with an injected candidate
// universe: only target relations in allowed survive discovery (nil
// means unrestricted). The experiments' differential harness uses it to
// run the alignment pipeline over an externally computed candidate set;
// AlignRelationContext itself passes the candidate index's top-k when
// Config.CandidateTopK is on.
func (a *Aligner) AlignRelationWithin(ctx context.Context, r string, allowed map[string]bool) ([]Alignment, error) {
	if a.prepErr != nil {
		return nil, a.prepErr
	}
	cands, hits, err := a.discover(ctx, r, allowed)
	if err != nil {
		return nil, err
	}
	// room for a validation of every candidate and the equivalence check
	// of one: enough for most alignments, whose memo then never grows
	memo := sampling.NewObjectMemo((len(cands) + 1) * a.cfg.SampleSize)
	if err := a.validate(ctx, memo, r, cands); err != nil {
		return nil, err
	}
	out, aligns := a.score(cands, hits)
	if a.cfg.UseUBS {
		if err := a.applyUBS(ctx, memo, r, cands, aligns); err != nil {
			return nil, err
		}
	}
	if a.cfg.CheckEquivalence {
		if err := a.checkEquivalences(ctx, memo, r, out); err != nil {
			return nil, err
		}
	}
	sortAlignments(out)
	return out, nil
}

// AlignRelations is AlignRelationsContext under context.Background().
func (a *Aligner) AlignRelations(rs []string) ([][]Alignment, error) {
	return a.AlignRelationsContext(context.Background(), rs)
}

// AlignRelationsContext is the batch API: it aligns every relation in
// rs, scheduling up to Config.Parallelism relations concurrently, and
// returns one result slice per input relation, positionally matching
// rs. The in-flight relations share the aligner's global admission
// gate, so total endpoint concurrency stays at Parallelism no matter
// how many relations are being aligned at once.
//
// Point the aligner at endpoints decorated with endpoint.Caching and
// the batch shares deduplicated endpoint traffic across relations —
// the concurrent aligners probe overlapping subjects and samples, and
// each distinct query reaches the backing service once. For
// deterministic endpoints (fixed Local seeds) the output is identical
// to calling AlignRelationContext sequentially, at any Parallelism.
//
// The first error (in rs order) aborts the batch, cancelling the
// probes of the relations still in flight.
func (a *Aligner) AlignRelationsContext(ctx context.Context, rs []string) ([][]Alignment, error) {
	out := make([][]Alignment, len(rs))
	err := flight.Each(ctx, a.cfg.Parallelism, len(rs), func(ctx context.Context, i int) (err error) {
		out[i], err = a.AlignRelationContext(ctx, rs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// validate runs Simple Sample Extraction for every candidate rule,
// filling in its Ev and Set, fanning the per-candidate endpoint work out
// over the worker pool.
func (a *Aligner) validate(ctx context.Context, memo *sampling.ObjectMemo, r string, cands []sampling.Rule) error {
	return a.runRanges(ctx, len(cands), func(ctx context.Context, lo, hi int) error {
		if err := a.val.SimpleEvidenceEach(ctx, memo, cands[lo:hi], a.cfg.SampleSize); err != nil {
			return fmt.Errorf("core: validating %d candidates for %s: %w", hi-lo, r, err)
		}
		return nil
	})
}

// score turns validated candidates into Alignments and applies the
// confidence threshold and support gates. Pure computation — no
// endpoint traffic.
func (a *Aligner) score(cands []sampling.Rule, hits map[string]int) ([]Alignment, map[string]*Alignment) {
	out := make([]Alignment, 0, len(cands))
	aligns := make(map[string]*Alignment, len(cands))
	for _, c := range cands {
		al := Alignment{
			Rule: ilp.Rule{
				BodyKB: a.val.KPrime.Name(), HeadKB: a.val.K.Name(),
				Body: c.Body, Head: c.Head,
			},
			PCA:           c.Ev.PCAConf(),
			CWA:           c.Ev.CWAConf(),
			Support:       c.Ev.Support(),
			Evidence:      c.Ev.Total(),
			DiscoveryHits: hits[c.Body],
		}
		al.Confidence = a.cfg.Measure.Conf(c.Ev)
		al.Accepted = al.Confidence >= a.cfg.Threshold && al.Support >= a.cfg.MinSupport
		out = append(out, al)
		aligns[c.Body] = &out[len(out)-1]
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

// candidateProber obtains the candidate index over the target
// inventory, for a.cands: from Config.CandidateIndexCache when one is
// shared (so co-targeted aligners resolve the index once), through a
// private cache otherwise — the cache handles sidecar restore and the
// build fallback either way. The resolution holds one admission-gate
// slot like any endpoint-bound stage; a build fans its sampling out
// over its own Config.Parallelism-bounded pool, which stands in for the
// gate during this one-time pass, which flight.Memo runs detached.
func (a *Aligner) candidateProber(ctx context.Context) (*candidates.Prober, error) {
	a.sem <- struct{}{}
	defer func() { <-a.sem }()
	cache := a.cfg.CandidateIndexCache
	if cache == nil {
		cache = NewIndexCache()
		cache.Trace = a.cfg.Trace
	}
	ix, err := cache.Get(ctx, a.val.KPrime, a.val.Links, a.cfg.CandidateIndexPath, candidates.Options{
		MaxPostings: a.cfg.CandidateMaxPostings,
		Parallelism: a.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return candidates.NewProber(ix, a.val.K)
}

// prune computes the allowed candidate set for r from the candidate
// index — or nil (no restriction) when pruning is off.
func (a *Aligner) prune(ctx context.Context, r string) (map[string]bool, error) {
	if a.cfg.CandidateTopK <= 0 {
		return nil, nil
	}
	prober, err, _ := a.cands.Get(ctx, struct{}{}, a.candidateProber)
	if err != nil {
		return nil, fmt.Errorf("core: candidate index: %w", err)
	}
	var top []candidates.Candidate
	err = a.runStage(ctx, 1, func(ctx context.Context, _ int) (err error) {
		top, err = prober.TopKContext(ctx, r, a.cfg.CandidateTopK)
		return err
	})
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

// discover returns the candidate rules r' ⇒ r — r' a relation of K'
// that co-occurs with r's sampled facts (Validator.Discover) and is in
// allowed (nil allows all), most hits first, at most maxCandidates — and
// the hits of every co-occurring relation.
func (a *Aligner) discover(ctx context.Context, r string, allowed map[string]bool) ([]sampling.Rule, map[string]int, error) {
	hits, err := a.val.Discover(ctx, r, a.cfg.SampleSize, a.runStage)
	if err != nil {
		return nil, nil, err
	}
	cands := make([]sampling.Rule, 0, len(hits))
	for rel := range hits {
		if allowed == nil || allowed[rel] {
			cands = append(cands, sampling.Rule{Body: rel, Head: r})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if hi, hj := hits[cands[i].Body], hits[cands[j].Body]; hi != hj {
			return hi > hj
		}
		return cands[i].Body < cands[j].Body
	})
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	return cands, hits, nil
}

// applyUBS runs both contradiction-search strategies and prunes. The
// endpoint-heavy contradiction searches fan out over the worker pool;
// their results are applied sequentially in pair order, so the
// aggregated counters and verdicts match the sequential run exactly.
func (a *Aligner) applyUBS(ctx context.Context, memo *sampling.ObjectMemo, r string, cands []sampling.Rule, aligns map[string]*Alignment) error {
	// provisional = accepted so far (confidence+support); only those
	// are worth the extra queries.
	var provisional []sampling.Rule
	for _, c := range cands {
		if aligns[c.Body].Accepted && entityCandidate(c) {
			provisional = append(provisional, c)
		}
	}

	ubs := func(side sampling.Side, pairs []sampling.SiblingPair) error {
		return a.runRanges(ctx, len(pairs), func(ctx context.Context, lo, hi int) error {
			return a.val.ContradictionsEach(ctx, memo, side, pairs[lo:hi], ubsSampleSize)
		})
	}

	if a.cfg.UBSBodySiblings {
		var pairs []sampling.SiblingPair
		for i := range provisional {
			for j := range provisional {
				if i != j {
					pairs = append(pairs, sampling.SiblingPair{A: provisional[i].Body, B: provisional[j].Body, Check: r})
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
		err := a.runRanges(ctx, len(provisional), func(ctx context.Context, lo, hi int) error {
			sibs, err := a.val.HeadSiblings(ctx, provisional[lo:hi], ubsSampleSize, ubsMaxSiblings)
			copy(siblings[lo:hi], sibs)
			return err
		})
		if err != nil {
			return err
		}
		var pairs []sampling.SiblingPair
		for i, c := range provisional {
			for _, z := range siblings[i] {
				pairs = append(pairs, sampling.SiblingPair{A: r, B: z, Check: c.Body})
			}
		}
		if err := ubs(sampling.HeadSide, pairs); err != nil {
			return err
		}
		for _, p := range pairs {
			res, al := p.Res, aligns[p.Check]
			// rows with check(x,y2) refute check ⇒ r
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
		if aligns[c.Body].PrunedByUBS {
			aligns[c.Body].Accepted = false
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
func entityCandidate(c sampling.Rule) bool {
	if c.Set == nil || len(c.Set.Facts) == 0 {
		return false
	}
	return c.Set.Facts[0].Y.IsIRI()
}

// checkEquivalences validates the reverse rule r ⇒ r' for accepted
// alignments through the flipped validator (val.Flip: roles of K and K'
// swapped), over the worker pool.
func (a *Aligner) checkEquivalences(ctx context.Context, memo *sampling.ObjectMemo, r string, out []Alignment) error {
	var accepted []int
	var rules []sampling.Rule
	for i := range out {
		if out[i].Accepted {
			accepted = append(accepted, i)
			rules = append(rules, sampling.Rule{Body: r, Head: out[i].Rule.Body})
		}
	}
	flipped := a.val.Flip()
	err := a.runRanges(ctx, len(rules), func(ctx context.Context, lo, hi int) error {
		return flipped.SimpleEvidenceEach(ctx, memo, rules[lo:hi], a.cfg.SampleSize)
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
