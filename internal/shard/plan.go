package shard

import (
	"fmt"

	"sofya/internal/sparql"
)

// plan.go classifies templates into federation strategies, derives the
// per-shard pushdown form, and caches the handles of query texts
// (templates without parameters). The classification rests on
// sparql.AnalyzeShard, with template parameters treated as concrete
// terms bound per execution.

// strategy is how one query executes across the shards.
type strategy uint8

const (
	// stratRoute: all patterns share one concrete subject; the query
	// goes verbatim to that subject's shard.
	stratRoute strategy = iota
	// stratMerge: unordered star query with the subject projected;
	// shard streams k-way merge on ascending subject term, which equals
	// whole-KB enumeration order.
	stratMerge
	// stratConcat: unordered decomposable query without a usable merge
	// column; shard streams concatenate in shard order. The result is
	// the exact whole-KB bag of rows, in a deterministic but
	// shard-dependent order — which is why classify rejects this shape
	// as soon as LIMIT or OFFSET would turn the order difference into a
	// row-set difference.
	stratConcat
	// stratMergeOrdered: ORDER BY query; shards stream the stripped
	// enumeration (borrowed rows, no per-row materialization), the merge
	// point re-derives keys in reconstructed whole-KB enumeration order
	// and keeps a bounded top-(offset+limit) selection of winners.
	stratMergeOrdered
)

// classify maps an analyzed query to a strategy, or an error when the
// federation cannot answer it faithfully.
func classify(q *sparql.Query, shape sparql.ShardShape) (strategy, error) {
	if !shape.Decomposable {
		return 0, fmt.Errorf("%w: triple patterns are not anchored on one common subject", ErrNotDecomposable)
	}
	if shape.SubjectParam != "" || !shape.Subject.IsZero() {
		return stratRoute, nil
	}
	if shape.RandFilters {
		return 0, fmt.Errorf("%w: RAND() inside FILTER depends on whole-KB enumeration", ErrNotDecomposable)
	}
	if q.Form == sparql.AskForm {
		return stratConcat, nil // fan out; the ask path short-circuits
	}
	if len(q.OrderBy) > 0 {
		if !shape.MergeOrdered {
			return 0, fmt.Errorf("%w: ORDER BY needs whole-KB enumeration order, which this query's shard streams cannot reconstruct", ErrNotDecomposable)
		}
		if !shape.KeysMergeable {
			return 0, fmt.Errorf("%w: ORDER BY keys cannot be re-derived at the merge point", ErrNotDecomposable)
		}
		return stratMergeOrdered, nil
	}
	if shape.MergeOrdered {
		return stratMerge, nil
	}
	if q.Limit >= 0 || q.LimitVar != "" || q.Offset > 0 {
		// Without a merge column the federation cannot reconstruct
		// whole-KB enumeration order, and LIMIT/OFFSET select a prefix
		// of exactly that order: a concatenation would return a
		// shard-dependent row set, not just a reordered one.
		return 0, fmt.Errorf("%w: LIMIT/OFFSET select a prefix of whole-KB enumeration order, which this query's shard streams cannot reconstruct", ErrNotDecomposable)
	}
	return stratConcat, nil
}

// pushdownQuery derives the per-shard form of a fanned-out query:
// ordered queries lose ORDER BY / LIMIT / OFFSET (the merge point
// reassembles them), unordered ones lose OFFSET and keep a LIMIT of
// offset+limit when no DISTINCT intervenes (a shard can contribute at
// most the first offset+limit rows of the merged prefix; DISTINCT
// voids that bound because a shard cannot see cross-shard duplicates).
func pushdownQuery(q *sparql.Query, strat strategy) *sparql.Query {
	push := q.MapPatterns(func(tp sparql.TriplePattern) sparql.TriplePattern { return tp })
	push.Offset = 0
	if strat == stratMergeOrdered {
		push.OrderBy = nil
		push.Limit = -1
		push.LimitVar = ""
		return push
	}
	switch {
	case q.Distinct:
		push.Limit = -1
		push.LimitVar = ""
	case q.LimitVar != "":
		// kept; the execution binds offset+limit into it
	case q.Limit >= 0:
		push.Limit = q.Offset + q.Limit
	}
	return push
}

// maxCachedPlans bounds the text-plan cache; alignment traffic draws
// from a handful of shapes, so the bound is rarely reached.
const maxCachedPlans = 256

// planFor prepares a query text as a zero-parameter template, caching
// the handle by text. Errors (parse, ErrNotDecomposable) are not cached.
func (g *Group) planFor(query string) (*groupPrepared, error) {
	g.mu.Lock()
	p, ok := g.plans[query]
	g.mu.Unlock()
	if ok {
		return p, nil
	}
	p, err := g.prepare(query, nil)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	if len(g.plans) >= maxCachedPlans {
		g.plans = make(map[string]*groupPrepared, maxCachedPlans)
	}
	g.plans[query] = p
	g.mu.Unlock()
	return p, nil
}
