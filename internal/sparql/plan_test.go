package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/synth"
)

// refPlan is the reference planner the one greedy loop (plan) replaced,
// kept here as two orderers and a cumulative-bound-set scan: refGreedy,
// the reference evaluator's heuristic, orders a plan that draws from
// RAND(); refCost, the same heuristic behind the cardinality estimate,
// orders every other plan; a one-pattern group needs neither. It
// returns the order and, per filter, the number of steps after which
// the filter runs, in plannedGroup's terms.
func refPlan(ex *execState, g *cgroup, bound []bool) (order, at []int32) {
	n := len(g.pats)
	switch {
	case n == 1:
		order = []int32{0}
	case ex.p.usesRand:
		order = refGreedy(ex, g, bound)
	default:
		order = refCost(ex, g, bound)
	}

	// The bound set before step i is cum[i*w:][:w].
	w := len(bound)
	cum := make([]bool, (n+1)*w)
	copy(cum, bound)
	for i, pi := range order {
		next := cum[(i+1)*w:][:w]
		copy(next, cum[i*w:][:w])
		tp := g.pats[pi]
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				next[ct.slot] = true
			}
		}
	}
	at = make([]int32, len(g.filters))
	for fi, f := range g.filters {
		at[fi] = int32(n) // EXISTS, never-bound variables, nothing bound
		if f.exists || f.unplaced {
			continue
		}
		for i := 0; i <= n; i++ {
			all := true
			for _, d := range f.deps {
				if !cum[i*w+int(d)] {
					all = false
					break
				}
			}
			if all {
				at[fi] = int32(i)
				break
			}
		}
	}
	return order, at
}

func refGreedy(ex *execState, g *cgroup, bound []bool) []int32 {
	n := len(g.pats)
	used := make([]bool, n)
	b := slices.Clone(bound)
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
		order = append(order, int32(best))
		tp := g.pats[best]
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				b[ct.slot] = true
			}
		}
	}
	return order
}

func refCost(ex *execState, g *cgroup, bound []bool) []int32 {
	n := len(g.pats)
	used := make([]bool, n)
	b := slices.Clone(bound)
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
			if best == -1 || est < bestEst ||
				(est == bestEst && (sc > bestScore || (sc == bestScore && sz < bestSize))) {
				best, bestEst, bestScore, bestSize = i, est, sc, sz
			}
		}
		used[best] = true
		order = append(order, int32(best))
		tp := g.pats[best]
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				b[ct.slot] = true
			}
		}
	}
	return order
}

// planQueries widens the oracle's corpus with the shapes whose plans
// tell orderers and placements apart: three-pattern joins with filters
// of every depth, RAND() and RAND-free, a pattern made more bound by a
// subject constant, and groups with no pattern — main groups and EXISTS
// subgroups.
func planQueries(k *kb.KB, rng *rand.Rand) []string {
	rels := k.Relations()
	rel := func() string { return k.Term(rels[rng.Intn(len(rels))]).Value }
	var qs []string
	for range 4 {
		a, b, c := rel(), rel(), rel()
		s := k.Term(subjectsWith(k, rels[rng.Intn(len(rels))])[0]).Value
		body := fmt.Sprintf(`?x <%s> ?y . ?y <%s> ?z . <%s> <%s> ?w .
  FILTER (?y != ?z) FILTER (STRLEN(STR(?w)) > 1) FILTER (?x != ?w)
  FILTER NOT EXISTS { ?z <%s> ?x }`, a, b, s, c, a)
		qs = append(qs,
			"SELECT ?x ?z WHERE { "+body+" }",
			"SELECT ?x ?z WHERE { "+body+" } ORDER BY RAND() LIMIT 5",
			"SELECT ?x WHERE { "+body+" FILTER (RAND() < 0.5) }",
			fmt.Sprintf("SELECT ?x WHERE { ?x <%s> ?y . ?x ?p <%s> } ORDER BY RAND() LIMIT 3", a, s),
		)
	}
	return append(qs,
		"SELECT ?x WHERE { FILTER (1 = 1) }",
		"SELECT ?x WHERE { FILTER (!BOUND(?x)) FILTER (RAND() < 2) }",
		"ASK { FILTER (1 = 1) FILTER NOT EXISTS { FILTER (1 = 2) } }",
		fmt.Sprintf("SELECT ?x WHERE { ?x <%s> ?y . FILTER EXISTS { FILTER (?y = ?x) } }", rel()),
	)
}

// TestJoinOrderMatchesReference holds the one planner to the reference
// planner it replaced (refPlan), order and filter placement, on every
// group — main and EXISTS subgroups, zero-pattern ones included — that
// the oracle's shapes compile to, over its random worlds: with the
// query's own arguments and with some replaced by a term the KB does
// not hold (a predicate of estimate 0), and with no register bound,
// with the main group's registers bound (an EXISTS attachment point)
// and with random subsets bound. It also checks that the corpus reaches
// what tells planners apart: RAND plans whose estimate would reorder
// them, filters placed between steps, and filters of zero-pattern
// groups.
func TestJoinOrderMatchesReference(t *testing.T) {
	var randReordered, between, zeroPattern int
	for _, worldSeed := range []int64{2016, 7, 99} {
		spec := synth.TinySpec()
		spec.Seed = worldSeed
		w := synth.Generate(spec)
		for _, freeze := range []bool{false, true} {
			for _, k := range []*kb.KB{w.Yago, w.Dbp} {
				if freeze {
					k.Freeze()
				}
				rng := rand.New(rand.NewSource(worldSeed * 17))
				e := NewEngineSeeded(k, worldSeed)
				for _, qtext := range append(oracleQueries(k, rng), planQueries(k, rng)...) {
					q, err := Parse(qtext)
					if err != nil {
						t.Fatalf("parse %q: %v", qtext, err)
					}
					p, err := e.bind(q)
					if err != nil {
						t.Fatalf("bind %q: %v", qtext, err)
					}
					unknown := slices.Clone(p.bound)
					for i, a := range unknown {
						if !a.isInt && rng.Intn(2) == 0 {
							unknown[i] = IRIArg("http://nowhere.example/unknown")
						}
					}
					for _, args := range [][]Arg{p.bound, unknown} {
						ex, _, _ := p.start(args)
						bounds := [][]bool{make([]bool, p.nslots), p.mainBind}
						for range 3 {
							b := make([]bool, p.nslots)
							for i := range b {
								b[i] = rng.Intn(2) == 0
							}
							bounds = append(bounds, b)
						}
						for _, g := range p.groups {
							for _, b := range bounds {
								for i, on := range b {
									ex.regs[i] = kb.NoTerm
									if on {
										ex.regs[i] = 1
									}
								}
								wantOrder, wantAt := refPlan(ex, g, slices.Clone(b))
								if p.usesRand && len(g.pats) > 1 && !slices.Equal(wantOrder, refCost(ex, g, b)) {
									randReordered++
								}
								pl := ex.plan(g)
								if !slices.Equal(pl.order, wantOrder) || !slices.Equal(pl.at, wantAt) {
									t.Fatalf("%q, group %d, bound %v, args %v: plan order %v, filters at %v; reference %v, %v",
										qtext, g.ix, b, args, pl.order, pl.at, wantOrder, wantAt)
								}
								for _, s := range wantAt {
									if s > 0 && int(s) < len(g.pats) {
										between++
									}
								}
								if len(g.pats) == 0 {
									zeroPattern += len(g.filters)
								}
							}
						}
						ex.end()
					}
				}
			}
		}
	}
	t.Logf("%d RAND plans the estimate would reorder, %d filters placed between steps, %d filters of zero-pattern groups",
		randReordered, between, zeroPattern)
	if randReordered == 0 || between == 0 || zeroPattern == 0 {
		t.Fatal("the corpus no longer reaches what tells planners apart")
	}
}
