package sparql

// naive_test.go preserves the original tree-walking evaluator as a
// reference implementation. It is the seed engine this repository
// started from, kept verbatim (modulo renames) so the differential
// oracle (oracle_test.go) can prove the compiled slot-based engine
// produces byte-identical results — including ORDER BY RAND() streams.

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strings"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// naiveEngine evaluates parsed queries against a KB by tree-walking
// with map-based bindings — the pre-compilation engine.
type naiveEngine struct {
	kb   *kb.KB
	seed int64
}

func newNaiveEngine(k *kb.KB, seed int64) *naiveEngine { return &naiveEngine{kb: k, seed: seed} }

// Eval evaluates a parsed query.
func (e *naiveEngine) Eval(q *Query) (*Result, error) {
	if q.Where == nil {
		return nil, fmt.Errorf("sparql: query has no WHERE pattern")
	}
	ev := &naiveEvaluator{kb: e.kb, seed: e.seed, query: q}

	switch q.Form {
	case AskForm:
		found := false
		err := ev.run(q.Where, nil, func(b naiveBinding) error {
			found = true
			return errStop
		})
		if err != nil && err != errStop {
			return nil, err
		}
		return &Result{Ask: found}, nil
	case SelectForm:
		return e.evalSelect(q, ev)
	default:
		return nil, fmt.Errorf("sparql: unsupported query form %d", q.Form)
	}
}

func (e *naiveEngine) EvalString(query string) (*Result, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return e.Eval(q)
}

func (e *naiveEngine) evalSelect(q *Query, ev *naiveEvaluator) (*Result, error) {
	vars := q.Vars
	res := &Result{Vars: vars}

	type sortableRow struct {
		row  []rdf.Term
		keys []Value
	}
	var rows []sortableRow
	seen := map[string]bool{}
	earlyStop := len(q.OrderBy) == 0 && q.Limit >= 0
	target := -1
	if earlyStop {
		target = q.Offset + q.Limit
	}

	err := ev.run(q.Where, nil, func(b naiveBinding) error {
		row := make([]rdf.Term, len(vars))
		for i, v := range vars {
			if id, ok := b[v]; ok {
				row[i] = e.kb.Term(id)
			} else {
				return nil
			}
		}
		if q.Distinct {
			key := naiveRowKey(row)
			if seen[key] {
				return nil
			}
			seen[key] = true
		}
		sr := sortableRow{row: row}
		if len(q.OrderBy) > 0 {
			sr.keys = make([]Value, len(q.OrderBy))
			envb := &naiveBindingEnv{ev: ev, b: b}
			for i, k := range q.OrderBy {
				sr.keys[i] = k.Expr.eval(envb)
			}
		}
		rows = append(rows, sr)
		if earlyStop && len(rows) >= target {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return nil, err
	}

	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range q.OrderBy {
				c, ok := valuesOrder(rows[i].keys[k], rows[j].keys[k])
				if !ok {
					continue
				}
				if c == 0 {
					continue
				}
				if q.OrderBy[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	start := q.Offset
	if start > len(rows) {
		start = len(rows)
	}
	end := len(rows)
	if q.Limit >= 0 && start+q.Limit < end {
		end = start + q.Limit
	}
	for _, sr := range rows[start:end] {
		res.Rows = append(res.Rows, sr.row)
	}
	return res, nil
}

func naiveRowKey(row []rdf.Term) string {
	var sb strings.Builder
	for _, t := range row {
		sb.WriteString(t.String())
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// naiveBinding maps variable names to interned term IDs.
type naiveBinding map[string]kb.TermID

type naiveEvaluator struct {
	kb    *kb.KB
	seed  int64
	query *Query
	rand  *rand.Rand
}

func (ev *naiveEvaluator) rng() *rand.Rand {
	if ev.rand == nil {
		h := fnv.New64a()
		io.WriteString(h, ev.query.String())
		ev.rand = rand.New(rand.NewSource(ev.seed*1_000_003 ^ int64(h.Sum64())))
	}
	return ev.rand
}

type naiveBindingEnv struct {
	ev *naiveEvaluator
	b  naiveBinding
}

func (be *naiveBindingEnv) lookupVar(name string) (rdf.Term, bool) {
	id, ok := be.b[name]
	if !ok {
		return rdf.Term{}, false
	}
	return be.ev.kb.Term(id), true
}

func (be *naiveBindingEnv) rng() *rand.Rand { return be.ev.rng() }

func (be *naiveBindingEnv) evalExists(g *GroupPattern) (bool, error) {
	found := false
	err := be.ev.run(g, be.b, func(naiveBinding) error {
		found = true
		return errStop
	})
	if err != nil && err != errStop {
		return false, err
	}
	return found, nil
}

type naivePlanned struct {
	steps        []TriplePattern
	filtersAfter [][]Expr
	preFilters   []Expr
}

func (ev *naiveEvaluator) plan(g *GroupPattern, pre naiveBinding) naivePlanned {
	n := len(g.Triples)
	used := make([]bool, n)
	bound := map[string]bool{}
	for v := range pre {
		bound[v] = true
	}
	var order []TriplePattern

	boundCount := func(tp TriplePattern) int {
		c := 0
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if !pt.IsVar || bound[pt.Var] {
				c++
			}
		}
		return c
	}
	relSize := func(tp TriplePattern) int {
		if tp.P.IsVar {
			return 1 << 30
		}
		id := ev.kb.Lookup(tp.P.Term)
		if id == kb.NoTerm {
			return 0
		}
		return ev.kb.NumFactsOf(id)
	}

	for len(order) < n {
		best, bestScore, bestSize := -1, -1, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sc := boundCount(g.Triples[i])
			sz := relSize(g.Triples[i])
			if sc > bestScore || (sc == bestScore && sz < bestSize) {
				best, bestScore, bestSize = i, sc, sz
			}
		}
		used[best] = true
		tp := g.Triples[best]
		order = append(order, tp)
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				bound[pt.Var] = true
			}
		}
	}

	pl := naivePlanned{steps: order, filtersAfter: make([][]Expr, n)}
	cum := make([]map[string]bool, n+1)
	cum[0] = map[string]bool{}
	for v := range pre {
		cum[0][v] = true
	}
	for i, tp := range order {
		next := map[string]bool{}
		for v := range cum[i] {
			next[v] = true
		}
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				next[pt.Var] = true
			}
		}
		cum[i+1] = next
	}
	for _, f := range g.Filters {
		if _, isExists := f.(exExists); isExists {
			if n == 0 {
				pl.preFilters = append(pl.preFilters, f)
			} else {
				pl.filtersAfter[n-1] = append(pl.filtersAfter[n-1], f)
			}
			continue
		}
		deps := exprVars(f)
		placed := false
		for i := 0; i <= n && !placed; i++ {
			all := true
			for _, d := range deps {
				if !cum[i][d] {
					all = false
					break
				}
			}
			if all {
				if i == 0 {
					pl.preFilters = append(pl.preFilters, f)
				} else {
					pl.filtersAfter[i-1] = append(pl.filtersAfter[i-1], f)
				}
				placed = true
			}
		}
		if !placed {
			if n == 0 {
				pl.preFilters = append(pl.preFilters, f)
			} else {
				pl.filtersAfter[n-1] = append(pl.filtersAfter[n-1], f)
			}
		}
	}
	return pl
}

func (ev *naiveEvaluator) run(g *GroupPattern, pre naiveBinding, emit func(naiveBinding) error) error {
	pl := ev.plan(g, pre)
	b := make(naiveBinding, len(pre)+4)
	for k, v := range pre {
		b[k] = v
	}
	envb := &naiveBindingEnv{ev: ev, b: b}
	for _, f := range pl.preFilters {
		ok, valid := f.eval(envb).EBV()
		if !valid || !ok {
			return nil
		}
	}
	return ev.join(pl, 0, b, envb, emit)
}

func (ev *naiveEvaluator) join(pl naivePlanned, step int, b naiveBinding, envb *naiveBindingEnv, emit func(naiveBinding) error) error {
	if step == len(pl.steps) {
		return emit(b)
	}
	tp := pl.steps[step]
	return ev.matchPattern(tp, b, func(newVars []string) error {
		for _, f := range pl.filtersAfter[step] {
			ok, valid := f.eval(envb).EBV()
			if !valid || !ok {
				return nil
			}
		}
		return ev.join(pl, step+1, b, envb, emit)
	}, func(newVars []string) {
		for _, v := range newVars {
			delete(b, v)
		}
	})
}

func (ev *naiveEvaluator) matchPattern(tp TriplePattern, b naiveBinding,
	found func(newVars []string) error, undo func(newVars []string)) error {

	resolve := func(pt PatternTerm) (kb.TermID, string, bool) {
		if !pt.IsVar {
			id := ev.kb.Lookup(pt.Term)
			return id, "", true
		}
		if id, ok := b[pt.Var]; ok {
			return id, "", true
		}
		return kb.NoTerm, pt.Var, false
	}

	sID, sVar, sBound := resolve(tp.S)
	pID, pVar, pBound := resolve(tp.P)
	oID, oVar, oBound := resolve(tp.O)

	if (sBound && sID == kb.NoTerm) || (pBound && pID == kb.NoTerm) || (oBound && oID == kb.NoTerm) {
		return nil
	}

	try := func(s, p, o kb.TermID) error {
		var newVars []string
		bind := func(name string, id kb.TermID) bool {
			if name == "" {
				return true
			}
			if prev, ok := b[name]; ok {
				return prev == id
			}
			b[name] = id
			newVars = append(newVars, name)
			return true
		}
		ok := true
		if !sBound {
			ok = bind(sVar, s)
		}
		if ok && !pBound {
			ok = bind(pVar, p)
		}
		if ok && !oBound {
			ok = bind(oVar, o)
		}
		if !ok {
			for _, v := range newVars {
				delete(b, v)
			}
			return nil
		}
		err := found(newVars)
		undo(newVars)
		return err
	}

	switch {
	case sBound && pBound && oBound:
		if ev.kb.HasFact(sID, pID, oID) {
			return try(sID, pID, oID)
		}
		return nil
	case sBound && pBound:
		for _, o := range ev.kb.ObjectsOf(sID, pID) {
			if err := try(sID, pID, o); err != nil {
				return err
			}
		}
		return nil
	case pBound && oBound:
		for _, s := range ev.kb.SubjectsOf(pID, oID) {
			if err := try(s, pID, oID); err != nil {
				return err
			}
		}
		return nil
	case sBound && oBound:
		var err error
		ev.kb.EachPredicateBetween(sID, oID, func(p kb.TermID) bool {
			err = try(sID, p, oID)
			return err == nil
		})
		return err
	case sBound:
		for _, p := range ev.kb.PredicatesOfSubject(sID) {
			for _, o := range ev.kb.ObjectsOf(sID, p) {
				if err := try(sID, p, o); err != nil {
					return err
				}
			}
		}
		return nil
	case pBound:
		var outerErr error
		ev.kb.EachFactOf(pID, func(s, o kb.TermID) bool {
			if err := try(s, pID, o); err != nil {
				outerErr = err
				return false
			}
			return true
		})
		return outerErr
	case oBound:
		for _, p := range ev.kb.Relations() {
			for _, s := range ev.kb.SubjectsOf(p, oID) {
				if err := try(s, p, oID); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		for _, p := range ev.kb.Relations() {
			var outerErr error
			ev.kb.EachFactOf(p, func(s, o kb.TermID) bool {
				if err := try(s, p, o); err != nil {
					outerErr = err
					return false
				}
				return true
			})
			if outerErr != nil {
				return outerErr
			}
		}
		return nil
	}
}
