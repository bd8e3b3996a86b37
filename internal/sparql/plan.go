package sparql

import (
	"slices"

	"sofya/internal/kb"
)

// plan.go finalizes a compiled group for one execution: it chooses the
// join order and attaches filters to the earliest step at which their
// registers are bound. Ordering happens per execution, not per compile,
// because a Prepared's parameters are bound at execution time and the
// cost of a pattern depends on the actual predicate's cardinality.
//
// One greedy loop orders every group: each step picks the pattern with
// the smallest estimated result cardinality (estimate, from the KB's
// per-predicate statistics, O(1) each), then the most bound positions,
// then the smallest relation, then input order. A plan that draws from
// the RAND() stream skips the estimate, and the loop is then exactly the
// reference tree-walking evaluator's heuristic: there the per-row draw
// sequence pairs random values with enumeration order, so only an
// identical join order keeps results byte-identical to the reference
// engine.

// plannedGroup is one group's plan for one execution, written into the
// state's words at the group's offset (cgroup.off).
type plannedGroup struct {
	order []int32 // indexes into cgroup.pats, execution order
	// at is, per filter, the number of steps after which it is
	// evaluated: 0 before any step, len(order) after the last.
	at   []int32
	done bool // planned in this execution
}

// plan orders g's patterns given the currently-bound registers and
// places its filters: each goes to the first step after which its
// registers are bound. EXISTS filters and filters over never-bound
// variables go after the last step (before any step when the group has
// no patterns).
func (ex *execState) plan(g *cgroup) *plannedGroup {
	n := len(g.pats)
	w := ex.words[g.off:][:n+len(g.filters)]
	pl := &ex.plans[g.ix]
	*pl = plannedGroup{order: w[:0:n], at: w[n:], done: true}
	for fi := range pl.at {
		pl.at[fi] = int32(n)
	}
	bound := ex.boundRegs()
	noEstimate := ex.p.usesRand
	for step := range n {
		for fi, f := range g.filters {
			if pl.at[fi] == int32(n) && !f.exists && !f.unplaced && allBound(f.deps, bound) {
				pl.at[fi] = int32(step)
			}
		}
		best, bestEst, bestScore, bestSize := -1, 0, 0, 0
		for i, tp := range g.pats {
			if slices.Contains(pl.order, int32(i)) {
				continue
			}
			est := 0
			if !noEstimate {
				est = ex.estimate(tp, bound)
			}
			sc, sz := ex.boundCount(tp, bound), ex.relSize(tp)
			if best < 0 || est < bestEst ||
				(est == bestEst && (sc > bestScore || (sc == bestScore && sz < bestSize))) {
				best, bestEst, bestScore, bestSize = i, est, sc, sz
			}
		}
		pl.order = append(pl.order, int32(best))
		tp := g.pats[best]
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				bound[ct.slot] = true
			}
		}
	}
	return pl
}

// allBound reports whether every register in deps is bound.
func allBound(deps []int32, bound []bool) bool {
	for _, d := range deps {
		if !bound[d] {
			return false
		}
	}
	return true
}

// boundCount counts pattern positions that are concrete or already
// bound — the reference planner's primary criterion.
func (ex *execState) boundCount(tp cpattern, bound []bool) int {
	c := 0
	for _, ct := range []cterm{tp.s, tp.p, tp.o} {
		if !ct.isVar || bound[ct.slot] {
			c++
		}
	}
	return c
}

// relSize mirrors the reference planner's tie-break: variable
// predicates are huge, unknown predicates empty, otherwise the
// relation's fact count.
func (ex *execState) relSize(tp cpattern) int {
	if tp.p.isVar {
		return 1 << 30
	}
	id := ex.res[tp.p.res]
	if id == kb.NoTerm {
		return 0
	}
	return ex.k.PlanFactsOf(id)
}

// estimate predicts the number of rows a pattern yields given the
// bound set, from the KB's per-predicate cardinality statistics.
func (ex *execState) estimate(tp cpattern, bound []bool) int {
	sB := !tp.s.isVar || bound[tp.s.slot]
	oB := !tp.o.isVar || bound[tp.o.slot]
	if tp.p.isVar {
		// Predicate variables enumerate per-subject predicate lists or
		// whole relations; coarse buckets suffice to rank them last.
		switch {
		case sB && oB:
			return 4
		case sB:
			return 64
		case oB:
			return 1 << 10
		default:
			return 1 << 30
		}
	}
	id := ex.res[tp.p.res]
	if id == kb.NoTerm {
		return 0 // matches nothing: run it first and finish immediately
	}
	// The Plan* accessors serve partition-wide overrides on shard KBs
	// (kb.SetPlanStats) so a shard plans exactly like the whole KB; on
	// ordinary KBs they are the plain counts.
	f := ex.k.PlanFactsOf(id)
	switch {
	case sB && oB:
		return 1
	case sB:
		s := ex.k.PlanSubjectsOf(id)
		if s == 0 {
			return 0
		}
		return (f + s - 1) / s
	case oB:
		o := ex.k.PlanObjectsOf(id)
		if o == 0 {
			return 0
		}
		return (f + o - 1) / o
	default:
		return f
	}
}
