package sparql

import "sofya/internal/kb"

// plan.go finalizes a compiled group for one execution: it chooses the
// join order and attaches filters to the earliest step at which their
// registers are bound. Ordering happens per execution, not per compile,
// because a Prepared's parameters are bound at execution time and the
// cost of a pattern depends on the actual predicate's cardinality.
//
// Two orderers exist:
//
//   - costOrder ranks patterns by estimated result cardinality from the
//     KB's per-predicate statistics (fact counts and functionalities,
//     O(1) each). It is used for every query whose results
//     cannot depend on enumeration order.
//
//   - greedyOrder reproduces the reference tree-walking evaluator's
//     heuristic exactly (most-bound first, smaller relation on ties,
//     input order last). It is used whenever the query draws from the
//     RAND() stream, because there the per-row draw sequence pairs
//     random values with enumeration order: only an identical join
//     order keeps results byte-identical to the reference engine.
type plannedGroup struct {
	order []int32   // indexes into cgroup.pats, execution order
	after [][]int32 // filter indexes evaluated after each step; nil without filters
	pre   []int32   // filter indexes evaluated before any step
}

// onePattern is the order of every one-pattern group, shared: nothing
// writes a plan's order.
var onePattern = []int32{0}

// planGroup orders g's patterns given the currently-bound register set
// and attaches its filters.
func (ex *execState) planGroup(g *cgroup, bound []bool) plannedGroup {
	n := len(g.pats)
	var pl plannedGroup
	switch {
	case n == 1:
		pl.order = onePattern
	case ex.p.usesRand:
		pl.order = ex.greedyOrder(g, bound)
	default:
		pl.order = ex.costOrder(g, bound)
	}
	if len(g.filters) == 0 {
		return pl
	}
	pl.after = make([][]int32, n)

	// Cumulative bound sets along the chosen order: the set before step
	// i is cum[i*w:][:w].
	w := len(bound)
	cum := make([]bool, (n+1)*w)
	copy(cum, bound)
	for i, pi := range pl.order {
		next := cum[(i+1)*w:][:w]
		copy(next, cum[i*w:][:w])
		tp := g.pats[pi]
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				next[ct.slot] = true
			}
		}
	}

	for fi, f := range g.filters {
		if f.exists || f.unplaced {
			// EXISTS filters and filters over never-bound variables
			// evaluate after the last step (before any step when the
			// group has no patterns).
			if n == 0 {
				pl.pre = append(pl.pre, int32(fi))
			} else {
				pl.after[n-1] = append(pl.after[n-1], int32(fi))
			}
			continue
		}
		placed := false
		for i := 0; i <= n && !placed; i++ {
			all := true
			for _, d := range f.deps {
				if !cum[i*w+int(d)] {
					all = false
					break
				}
			}
			if all {
				if i == 0 {
					pl.pre = append(pl.pre, int32(fi))
				} else {
					pl.after[i-1] = append(pl.after[i-1], int32(fi))
				}
				placed = true
			}
		}
		if !placed {
			if n == 0 {
				pl.pre = append(pl.pre, int32(fi))
			} else {
				pl.after[n-1] = append(pl.after[n-1], int32(fi))
			}
		}
	}
	return pl
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

// greedyOrder replicates the reference evaluator's plan loop exactly,
// tie-breaks included.
func (ex *execState) greedyOrder(g *cgroup, bound []bool) []int32 {
	n := len(g.pats)
	used := make([]bool, n)
	b := make([]bool, len(bound))
	copy(b, bound)
	order := make([]int32, 0, n)
	for len(order) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sc := ex.boundCount(g.pats[i], b)
			sz := ex.relSize(g.pats[i])
			if sc > bestScore || (sc == bestScore && sz < bestSize) {
				best, bestScore, bestSize = i, sc, sz
			}
		}
		used[best] = true
		tp := g.pats[best]
		order = append(order, int32(best))
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				b[ct.slot] = true
			}
		}
	}
	return order
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

// costOrder greedily picks the pattern with the smallest estimated
// cardinality next, breaking ties with the reference criteria so the
// order stays deterministic.
func (ex *execState) costOrder(g *cgroup, bound []bool) []int32 {
	n := len(g.pats)
	used := make([]bool, n)
	b := make([]bool, len(bound))
	copy(b, bound)
	order := make([]int32, 0, n)
	for len(order) < n {
		best := -1
		bestEst, bestScore, bestSize := 0, -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			est := ex.estimate(g.pats[i], b)
			sc := ex.boundCount(g.pats[i], b)
			sz := ex.relSize(g.pats[i])
			better := best == -1 || est < bestEst ||
				(est == bestEst && (sc > bestScore || (sc == bestScore && sz < bestSize)))
			if better {
				best, bestEst, bestScore, bestSize = i, est, sc, sz
			}
		}
		used[best] = true
		tp := g.pats[best]
		order = append(order, int32(best))
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				b[ct.slot] = true
			}
		}
	}
	return order
}
