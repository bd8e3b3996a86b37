package sparql

import "sofya/internal/rdf"

// shard.go exports what the federation layer (internal/shard) needs to
// merge per-shard result streams back into the whole-KB result byte for
// byte: the query-structure analysis (AnalyzeShard → ShardShape, each
// deterministic ORDER BY key lowered by the engine's own expression
// compiler over the projected row and evaluated through RowKeys),
// NumValue to box a re-drawn RAND() key, and the seed ⊕ canonical text
// PRNG stream (RandFloats).
// The selection itself, key comparison included, is OrderSelector
// (topk.go). Everything is the definition the engine executes, so the
// merge point reproduces engine semantics exactly instead of
// approximating them.

// ShardOrderKey describes one ORDER BY key to the merge layer.
type ShardOrderKey struct {
	// Rand marks a bare RAND() key: its value is not a function of the
	// row but the next draw of the query's PRNG stream, taken in
	// enumeration order — the merge layer re-draws it from RandFloats.
	Rand bool
	// Desc is the key's sort direction.
	Desc bool
	// SubjectKey marks a key that is the bare common subject variable.
	// Its value is monotonically non-decreasing along the merged
	// enumeration (shard streams interleave on ascending subject term),
	// which is what lets the merge close losing shard streams early:
	// with an ascending first SubjectKey and a full top-k heap, a shard
	// whose head subject already orders strictly after the worst kept
	// row can never contribute again — every later row of that shard
	// has a ≥ subject and a larger enumeration index. RAND keys void
	// this (every enumerated row must consume a draw).
	SubjectKey bool
	// key is the key lowered in row mode (compileRowKey), which RowKeys
	// evaluates; nil when Rand is set or the key cannot be computed from
	// the projection alone.
	key cexpr
}

// ShardShape is the static decomposability analysis of one query over a
// subject-hash-partitioned KB federation (kb.Partition): whether the
// whole-KB result is the union of per-shard results, how shard streams
// interleave back into whole-KB enumeration order, and how ORDER BY
// keys can be reproduced at the merge point.
type ShardShape struct {
	// Decomposable reports that every triple pattern — in the main
	// group and in every [NOT] EXISTS subgroup — is anchored on one
	// common subject: the same variable, the same template parameter,
	// or the same concrete term. Then each result row is derived
	// entirely from one subject's facts, which live in one shard, so
	// the union of shard results is exactly the whole-KB result.
	Decomposable bool
	// SubjectVar is the common subject variable, "" otherwise.
	SubjectVar string
	// SubjectParam is the common subject template parameter (the query
	// routes to one shard chosen per execution), "" otherwise.
	SubjectParam string
	// Subject is the common concrete subject term (the query routes to
	// one statically-known shard); zero otherwise.
	Subject rdf.Term
	// SubjectCol is the projected column of SubjectVar, or -1.
	SubjectCol int
	// MergeOrdered reports that shard streams of the ORDER-stripped
	// query interleave back into whole-KB enumeration order by merging
	// on ascending SubjectCol term: every main pattern has the common
	// subject variable, a concrete (or parameter) predicate and a
	// variable object, so any join order the planner picks drives the
	// enumeration through per-predicate fact postings that group rows
	// by subject in term order — and subjects never span shards.
	MergeOrdered bool
	// OrderTotal mirrors the engine's static total-order guarantee: all
	// ORDER BY keys are always-numeric, so bounded top-k selection with
	// an enumeration tiebreak equals the reference stable sort.
	OrderTotal bool
	// RandFilters reports RAND() drawn outside ORDER BY keys (inside
	// FILTER expressions); those draws interleave with rows the merge
	// layer never sees, so the stream cannot be reproduced at the merge.
	RandFilters bool
	// Keys describes each ORDER BY key; KeysMergeable reports that all
	// of them are reproducible at the merge point (bare RAND draws or
	// row-computable expressions).
	Keys          []ShardOrderKey
	KeysMergeable bool
}

// AnalyzeShard classifies q for subject-partitioned federation. isParam
// reports whether a variable name is a template parameter (bound to a
// concrete term per execution); nil means no parameters.
func AnalyzeShard(q *Query, isParam func(name string) bool) ShardShape {
	if isParam == nil {
		isParam = func(string) bool { return false }
	}
	sh := ShardShape{SubjectCol: -1}
	if q.Where == nil || len(q.Where.Triples) == 0 {
		// Rows of a patternless (or filter-only) query are not derived
		// from any subject's facts; fanning such a query out would
		// replicate its rows once per shard.
		return sh
	}

	// Collect the subject of every pattern, main and EXISTS alike.
	var vars, params []string
	var terms []rdf.Term
	seenVar := map[string]bool{}
	seenTerm := map[rdf.Term]bool{}
	var walkGroup func(g *GroupPattern)
	walkGroup = func(g *GroupPattern) {
		for _, tp := range g.Triples {
			switch {
			case tp.S.IsVar && isParam(tp.S.Var):
				if !seenVar[tp.S.Var] {
					seenVar[tp.S.Var] = true
					params = append(params, tp.S.Var)
				}
			case tp.S.IsVar:
				if !seenVar[tp.S.Var] {
					seenVar[tp.S.Var] = true
					vars = append(vars, tp.S.Var)
				}
			default:
				if !seenTerm[tp.S.Term] {
					seenTerm[tp.S.Term] = true
					terms = append(terms, tp.S.Term)
				}
			}
		}
		for _, f := range g.Filters {
			eachExists(f, func(ex exExists) { walkGroup(ex.group) })
		}
	}
	walkGroup(q.Where)

	switch {
	case len(vars) == 1 && len(params) == 0 && len(terms) == 0:
		sh.Decomposable, sh.SubjectVar = true, vars[0]
	case len(vars) == 0 && len(params) == 1 && len(terms) == 0:
		sh.Decomposable, sh.SubjectParam = true, params[0]
	case len(vars) == 0 && len(params) == 0 && len(terms) == 1:
		sh.Decomposable, sh.Subject = true, terms[0]
	default:
		return sh
	}

	if sh.SubjectVar != "" {
		for i, v := range q.Vars {
			if v == sh.SubjectVar {
				sh.SubjectCol = i
				break
			}
		}
		sh.MergeOrdered = sh.SubjectCol >= 0
		for _, tp := range q.Where.Triples {
			// Predicates must resolve to concrete terms (so the driving
			// pattern enumerates one predicate's postings, grouped by
			// subject term) and objects must stay free (a bound object
			// would promote its pattern to driver through object-keyed
			// postings, whose insertion order does not interleave by
			// subject across shards).
			if tp.P.IsVar && !isParam(tp.P.Var) {
				sh.MergeOrdered = false
			}
			if !tp.O.IsVar || isParam(tp.O.Var) {
				sh.MergeOrdered = false
			}
		}
	}

	// RAND usage outside ORDER BY keys (exprUsesRand enters EXISTS
	// groups).
	for _, f := range q.Where.Filters {
		sh.RandFilters = sh.RandFilters || exprUsesRand(f)
	}

	// ORDER BY keys. A key list is statically total-ordered when every
	// key is always-numeric (the engine's own gate) or the bare subject
	// variable: subject values are always terms of the same comparison
	// class (never numeric- or string-coercible literals), so
	// valuesOrder falls through to the total term order. Bounded top-k
	// selection with an enumeration-index tiebreak then equals the
	// reference stable sort.
	sh.Keys = make([]ShardOrderKey, len(q.OrderBy))
	sh.KeysMergeable = true
	sh.OrderTotal = len(q.OrderBy) > 0
	for i, k := range q.OrderBy {
		if v, ok := k.Expr.(exVar); ok && sh.SubjectVar != "" && v.name == sh.SubjectVar {
			sh.Keys[i].SubjectKey = true
		}
		if !exprAlwaysNumeric(k.Expr) && !sh.Keys[i].SubjectKey {
			sh.OrderTotal = false
		}
		sh.Keys[i].Desc = k.Desc
		if isBareRand(k.Expr) {
			sh.Keys[i].Rand = true
			continue
		}
		if exprUsesRand(k.Expr) {
			// RAND nested inside a larger key expression: the draw is
			// reproducible but its combination is row-dependent in a way
			// the engine evaluates with interleaved draws; unsupported.
			sh.KeysMergeable = false
			continue
		}
		key, ok := compileRowKey(k.Expr, q.Vars)
		if !ok {
			sh.KeysMergeable = false
			continue
		}
		sh.Keys[i].key = key
	}
	return sh
}

// compileRowKey lowers an ORDER BY key without RAND in row mode, with
// the projected columns as its slots, when the key reads only projected
// variables and needs no KB (EXISTS).
func compileRowKey(e Expr, vars []string) (cexpr, bool) {
	c := &compiler{slots: make(map[string]int32, len(vars)), rows: true}
	for i, v := range vars {
		c.slots[v] = int32(i)
	}
	ok := true
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case exExists:
			ok = false
		case exVar:
			_, projected := c.slots[x.name]
			ok = ok && projected
		}
		return ok
	})
	if !ok {
		return nil, false
	}
	return c.lowerExpr(e), true
}

// RowKeys evaluates a shape's deterministic ORDER BY keys over projected
// rows. It holds the one execution state its keys' closures read, so a
// key costs no allocation per row; one ordered merge uses one RowKeys,
// from one goroutine.
type RowKeys struct {
	keys []ShardOrderKey
	ex   execState
}

// NewRowKeys returns the evaluator of keys, a ShardShape's Keys.
func NewRowKeys(keys []ShardOrderKey) *RowKeys { return &RowKeys{keys: keys} }

// Eval computes key i — one the shape made mergeable and not Rand — over
// a projected row, which it reads only for the call.
func (r *RowKeys) Eval(i int, row []rdf.Term) Value {
	r.ex.borrowRow = row
	v := r.keys[i].key(&r.ex)
	r.ex.borrowRow = nil
	return v
}

// NumValue wraps a float as the numeric Value RAND() keys produce: the
// merge boxes a re-drawn RAND() key that shares its list with others.
func NumValue(f float64) Value { return numValue(f) }

// RandFloats returns the RAND() draw stream an engine with the given
// seed derives for the canonical text of a query — the same stream, in
// the same order, that the engine pairs with rows as it enumerates
// them. The merge layer uses it to re-assign RAND keys to merged rows
// in reconstructed enumeration order. release returns the stream's
// state for reuse; draw must not be called after it.
func RandFloats(seed int64, canonicalText string) (draw func() float64, release func()) {
	r := randSource(seed, fnv64a(fnvOffset, canonicalText))
	return r.Float64, func() { randPool.Put(r) }
}
