package sparql

import (
	"fmt"
	"strings"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// compile.go is the middle stage of the parse → compile → exec
// pipeline: it turns a parsed Query (or Template) into a Prepared —
// a slot-addressed plan in which variables are integer registers,
// constants are resolved to term IDs, and parameters are argument
// positions. A Prepared is immutable and reusable; join ordering is
// finalized per execution (plan.go) because it depends on the argument
// values' cardinalities.

// cterm is one compiled triple-pattern position: a register slot or an
// index into the execution's resolved-constant table.
type cterm struct {
	isVar bool
	slot  int32 // register index, when isVar
	res   int32 // resolved-value index, when !isVar
}

// cpattern is a compiled triple pattern.
type cpattern struct{ s, p, o cterm }

// cfilter is a compiled filter: the lowered closure chain (cexpr.go)
// plus the register slots it reads, for cost-free attachment during
// planning. expr keeps the source AST for RAND detection and shape
// diagnostics; the hot loop only calls pred.
type cfilter struct {
	expr     Expr
	pred     cpred
	deps     []int32
	unplaced bool // reads a variable no pattern ever binds
	exists   bool // top-level [NOT] EXISTS: attaches after the last step
}

// cgroup is a compiled basic graph pattern. ix numbers it within its
// plan (the main group is 0), and off is where its plan lies in an
// execution's plan words: one word per pattern, then one per filter.
type cgroup struct {
	pats    []cpattern
	filters []cfilter
	ix, off int
}

// paramSpec describes one declared parameter of a compiled template.
type paramSpec struct {
	name  string
	isInt bool
}

// Prepared is a query compiled against an Engine's KB. It may carry
// parameters (compiled from a Template, or lifted from a concrete
// query's constants by the engine's plan cache), in which case Exec
// binds them positionally. A Prepared is safe for concurrent Exec.
type Prepared struct {
	*compiled

	// The handle of a concrete query (Engine.BindText) runs the lifted
	// plan of its shape on the query's own constants, bound, and takes no
	// arguments; fp is the FNV-64a hash of its canonical text, the seed
	// of its RAND() stream, when the plan draws.
	bound []Arg
	fp    uint64
}

// compiled is the compiled form itself: immutable, and shared by every
// handle bound to one lifted plan.
type compiled struct {
	eng      *Engine
	form     Form
	distinct bool
	vars     []string
	projSlot []int32
	projOK   bool // every projected variable is bound by the main pattern
	nslots   int
	slots    map[string]int32
	main     *cgroup
	groups   []*cgroup // every group, by ix: main, then EXISTS subgroups
	nwords   int       // plan words of all groups (cgroup.off)
	mainBind []bool    // slots bound by the main group's patterns
	orderBy  []OrderKey
	// orderKeys are the lowered ORDER BY expressions, one per orderBy
	// entry, evaluated per surviving row; orderDesc are their Desc
	// flags, in the form compareKeys consumes.
	orderKeys []cexpr
	orderDesc []bool
	limit     int
	offset    int

	params      []paramSpec
	constTerms  []rdf.Term // resolved values [len(params):] in exec order
	limitParam  int32      // parameter index for LIMIT, or -1
	offsetParam int32      // parameter index for OFFSET (lifted plans), or -1

	// usesRand marks queries whose results depend on the RAND() stream;
	// their plans skip the cardinality estimate, which leaves the greedy
	// order of the reference engine (naive_test.go), so that the per-row
	// draw sequence — and therefore the output bytes — match it exactly.
	usesRand bool
	// orderTotal marks ORDER BY key lists whose values are totally
	// ordered on every row (currently: every key is numeric by
	// construction, like RAND()). Only then is the bounded top-k
	// selection provably equal to the reference stable sort; mixed
	// comparable/incomparable keys make the comparator non-transitive,
	// so those queries take the materialize-and-stable-sort path.
	orderTotal bool
	// orderRand marks the sampling-probe shape, ORDER BY RAND() and
	// nothing else: OrderSelector selects it on the bare draws instead
	// of on boxed key lists.
	orderRand bool

	tmpl *Template // source template, when compiled from one
}

// Template returns the template this plan was compiled from, or nil.
func (p *Prepared) Template() *Template { return p.tmpl }

// Form returns the query form.
func (p *Prepared) Form() Form { return p.form }

// compiler carries state across the two compile passes.
type compiler struct {
	eng      *Engine
	q        *Query
	lift     bool
	paramIdx map[string]int // template parameter name → position
	params   []paramSpec
	consts   []rdf.Term
	slots    map[string]int32
	exists   map[*GroupPattern]*cgroup
	groups   []*cgroup
	nwords   int
	err      error
	// rows marks row mode, in which slots maps each projected variable
	// to its column and a variable reads the projected row
	// (compileRowKey) instead of the register file.
	rows bool
}

// compile builds a Prepared: the plan of a template, or — tmpl nil — the
// lifted plan of q's shape, every pattern constant, LIMIT and OFFSET a
// parameter.
func (e *Engine) compile(q *Query, tmpl *Template) (*Prepared, error) {
	if q.Where == nil {
		return nil, fmt.Errorf("sparql: query has no WHERE pattern")
	}
	if q.Form != SelectForm && q.Form != AskForm {
		return nil, fmt.Errorf("sparql: unsupported query form %d", q.Form)
	}
	c := &compiler{
		eng:      e,
		q:        q,
		lift:     tmpl == nil,
		paramIdx: map[string]int{},
		slots:    map[string]int32{},
		exists:   map[*GroupPattern]*cgroup{},
	}
	if tmpl != nil {
		for i, name := range tmpl.params {
			c.paramIdx[name] = i
			c.params = append(c.params, paramSpec{name: name, isInt: tmpl.isInt[i]})
		}
	}

	// Pass 1: assign register slots to every pattern variable, in
	// deterministic traversal order across the main group and all
	// EXISTS subgroups.
	c.assignSlots(q.Where)

	p := &Prepared{compiled: &compiled{
		eng:         e,
		form:        q.Form,
		distinct:    q.Distinct,
		vars:        q.Vars,
		orderBy:     q.OrderBy,
		limit:       q.Limit,
		offset:      q.Offset,
		limitParam:  -1,
		offsetParam: -1,
		tmpl:        tmpl,
	}}

	// Pass 2: compile pattern terms and filters.
	p.main = c.group(q.Where)
	if c.err != nil {
		return nil, c.err
	}
	p.groups, p.nwords = c.groups, c.nwords
	p.slots = c.slots
	p.nslots = len(c.slots)
	p.params = c.params
	p.constTerms = c.consts

	// LIMIT / OFFSET parameters.
	switch {
	case q.LimitVar != "" && tmpl != nil:
		i, ok := c.paramIdx[q.LimitVar]
		if !ok || !tmpl.isInt[i] {
			return nil, fmt.Errorf("sparql: LIMIT $%s is not an integer parameter", q.LimitVar)
		}
		p.limitParam = int32(i)
	case q.LimitVar != "":
		return nil, fmt.Errorf("sparql: unbound LIMIT parameter $%s", q.LimitVar)
	case c.lift:
		p.limitParam = int32(len(c.params))
		c.params = append(c.params, paramSpec{isInt: true})
		p.offsetParam = int32(len(c.params))
		c.params = append(c.params, paramSpec{isInt: true})
		p.params = c.params
	}

	// Projection: which slots feed result rows. A projected variable
	// that the main pattern never binds drops every row (the reference
	// evaluator's behavior), decided statically here.
	p.mainBind = make([]bool, p.nslots)
	for _, tp := range p.main.pats {
		for _, ct := range []cterm{tp.s, tp.p, tp.o} {
			if ct.isVar {
				p.mainBind[ct.slot] = true
			}
		}
	}
	p.projOK = true
	if q.Form == SelectForm {
		p.projSlot = make([]int32, len(q.Vars))
		for i, v := range q.Vars {
			slot, ok := c.slots[v]
			if !ok || !p.mainBind[slot] {
				p.projOK = false
				p.projSlot[i] = -1
				continue
			}
			p.projSlot[i] = slot
		}
	}

	// RAND() anywhere plans without the estimate (see plan.go).
	for _, g := range c.groups {
		for _, f := range g.filters {
			if exprUsesRand(f.expr) {
				p.usesRand = true
			}
		}
	}
	for _, k := range q.OrderBy {
		if exprUsesRand(k.Expr) {
			p.usesRand = true
		}
	}

	// Pass 3: lower filters and ORDER BY keys to slot-resolved closures
	// (cexpr.go). EXISTS lowering captures the compiled subgroup
	// directly, so this pass runs once the whole pattern tree exists.
	for _, g := range c.groups {
		for i := range g.filters {
			g.filters[i].pred = c.lowerPred(g.filters[i].expr)
		}
	}
	p.orderKeys = make([]cexpr, len(q.OrderBy))
	p.orderDesc = make([]bool, len(q.OrderBy))
	p.orderTotal = len(q.OrderBy) > 0
	p.orderRand = len(q.OrderBy) == 1 && isBareRand(q.OrderBy[0].Expr) && !q.OrderBy[0].Desc
	for i, k := range q.OrderBy {
		p.orderKeys[i] = c.lowerExpr(k.Expr)
		p.orderDesc[i] = k.Desc
		if !exprAlwaysNumeric(k.Expr) {
			p.orderTotal = false
		}
	}
	return p, nil
}

// assignSlots allocates registers for pattern variables in traversal
// order: triples of a group first (S, P, O), then each filter's EXISTS
// subgroups depth-first in syntactic order.
func (c *compiler) assignSlots(g *GroupPattern) {
	for _, tp := range g.Triples {
		for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar {
				if _, isParam := c.paramIdx[pt.Var]; isParam {
					continue
				}
				if _, ok := c.slots[pt.Var]; !ok {
					c.slots[pt.Var] = int32(len(c.slots))
				}
			}
		}
	}
	for _, f := range g.Filters {
		eachExists(f, func(ex exExists) { c.assignSlots(ex.group) })
	}
}

// group compiles one basic graph pattern and, recursively, the EXISTS
// subgroups referenced by its filters.
func (c *compiler) group(g *GroupPattern) *cgroup {
	cg := &cgroup{ix: len(c.groups)}
	c.groups = append(c.groups, cg)
	for _, tp := range g.Triples {
		cg.pats = append(cg.pats, cpattern{c.term(tp.S), c.term(tp.P), c.term(tp.O)})
	}
	for _, f := range g.Filters {
		cf := cfilter{expr: f}
		if _, ok := f.(exExists); ok {
			cf.exists = true
		} else {
			for _, name := range exprVars(f) {
				slot, ok := c.slots[name]
				if !ok {
					cf.unplaced = true
					continue
				}
				cf.deps = append(cf.deps, slot)
			}
		}
		cg.filters = append(cg.filters, cf)
		eachExists(f, func(ex exExists) {
			if _, done := c.exists[ex.group]; !done {
				c.exists[ex.group] = nil // placeholder breaks self-recursion
				c.exists[ex.group] = c.group(ex.group)
			}
		})
	}
	cg.off = c.nwords
	c.nwords += len(cg.pats) + len(cg.filters)
	return cg
}

// term compiles one triple-pattern position.
func (c *compiler) term(pt PatternTerm) cterm {
	if pt.IsVar {
		if i, isParam := c.paramIdx[pt.Var]; isParam {
			if c.params[i].isInt {
				c.err = fmt.Errorf("sparql: integer parameter $%s used in a triple pattern", pt.Var)
			}
			return cterm{res: int32(i)}
		}
		return cterm{isVar: true, slot: c.slots[pt.Var]}
	}
	if c.lift {
		// lifted plans turn every pattern constant into a parameter so
		// that structurally identical queries share one plan
		i := len(c.params)
		c.params = append(c.params, paramSpec{})
		return cterm{res: int32(i)}
	}
	i := int32(len(c.params)) + int32(len(c.consts))
	c.consts = append(c.consts, pt.Term)
	return cterm{res: i} // resolved table is params, then constants
}

// exprAlwaysNumeric reports whether the expression yields a numeric
// Value on every row regardless of bindings — the static guarantee
// under which ORDER BY comparison is a total order (numeric pairs are
// always comparable). RAND() and numeric literals qualify; anything
// value-dependent does not.
func exprAlwaysNumeric(e Expr) bool {
	_, num := e.(exNum)
	return num || isBareRand(e)
}

// isBareRand reports whether the expression is the RAND() call itself,
// not an expression over it.
func isBareRand(e Expr) bool {
	call, ok := e.(exCall)
	return ok && call.name == "RAND" && len(call.args) == 0
}

// shapeKey serializes the structure of a query with pattern constants,
// LIMIT and OFFSET blanked out — the key of the engine's plan cache.
// Two queries with equal shapes compile to the same lifted plan and
// differ only in their extracted arguments.
func shapeKey(q *Query) string {
	var sb strings.Builder
	if q.Form == AskForm {
		sb.WriteString("A|")
	} else {
		sb.WriteString("S|")
	}
	if q.Distinct {
		sb.WriteString("D|")
	}
	for _, v := range q.Vars {
		sb.WriteString("?" + v + " ")
	}
	var writeGroupKey func(g *GroupPattern)
	writePT := func(pt PatternTerm) {
		if pt.IsVar {
			sb.WriteString("?" + pt.Var + " ")
		} else {
			sb.WriteString("\x00 ") // lifted constant
		}
	}
	writeGroupKey = func(g *GroupPattern) {
		sb.WriteString("{")
		for _, tp := range g.Triples {
			writePT(tp.S)
			writePT(tp.P)
			writePT(tp.O)
			sb.WriteString(".")
		}
		for _, f := range g.Filters {
			if ex, ok := f.(exExists); ok {
				if ex.negate {
					sb.WriteString("FNE")
				} else {
					sb.WriteString("FE")
				}
				writeGroupKey(ex.group)
				continue
			}
			sb.WriteString("F(" + f.String() + ")")
			eachExists(f, func(ex exExists) { writeGroupKey(ex.group) })
		}
		sb.WriteString("}")
	}
	writeGroupKey(q.Where)
	for _, k := range q.OrderBy {
		if k.Desc {
			sb.WriteString("OD(")
		} else {
			sb.WriteString("OA(")
		}
		sb.WriteString(k.Expr.String() + ")")
	}
	sb.WriteString("|L$|O$")
	return sb.String()
}

// liftArgs extracts, in compile traversal order, the argument values of
// a concrete query for its lifted plan: every pattern constant, then
// LIMIT and OFFSET.
func liftArgs(q *Query, out []Arg) []Arg {
	var walkGroup func(g *GroupPattern)
	walkGroup = func(g *GroupPattern) {
		for _, tp := range g.Triples {
			for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
				if !pt.IsVar {
					out = append(out, TermArg(pt.Term))
				}
			}
		}
		for _, f := range g.Filters {
			eachExists(f, func(ex exExists) { walkGroup(ex.group) })
		}
	}
	walkGroup(q.Where)
	out = append(out, IntArg(q.Limit), IntArg(q.Offset))
	return out
}

// resolve appends the execution's resolved-value table to dst and
// returns it: parameter values first (in declaration order), then the
// plan's own constants. Unknown terms resolve to NoTerm, which simply
// matches nothing.
func (p *Prepared) resolve(dst []kb.TermID, args []Arg) []kb.TermID {
	k := p.eng.kb
	for i, a := range args {
		if p.params[i].isInt {
			dst = append(dst, kb.NoTerm)
			continue
		}
		dst = append(dst, k.Lookup(a.term))
	}
	for _, t := range p.constTerms {
		dst = append(dst, k.Lookup(t))
	}
	return dst
}

// bind validates an execution's arguments against the handle's
// parameters and returns the argument values the plan runs on: args, or
// a concrete query's own constants.
func (p *Prepared) bind(args []Arg) ([]Arg, error) {
	want := len(p.params)
	if p.bound != nil {
		want = 0
	}
	if len(args) != want {
		return nil, fmt.Errorf("sparql: prepared query needs %d args, got %d", want, len(args))
	}
	for i, a := range args {
		if a.isInt != p.params[i].isInt {
			return nil, fmt.Errorf("sparql: prepared arg %d has the wrong kind", i)
		}
	}
	if p.bound != nil {
		return p.bound, nil
	}
	return args, nil
}
