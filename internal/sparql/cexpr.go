package sparql

import (
	"regexp"

	"sofya/internal/kb"
)

// cexpr.go lowers filter and ORDER BY expressions into closure chains at
// compile time. The closures are the one expression evaluator: the join
// loop never walks an AST or resolves a variable name. Variables are
// pre-resolved to register slots (or, for the merge layer's ORDER BY
// keys, to projected columns), constant subtrees are folded to Values by
// running their own closures once, and EXISTS subgroups become probes
// over their pre-compiled cgroups. naive_test.go's tree-walker is the
// reference these closures are held to.

// cexpr is a compiled expression: it evaluates against one execution's
// register file. Closures are immutable and shared by concurrent
// executions of the same Prepared.
type cexpr func(ex *execState) Value

// cpred is a compiled filter predicate — the effective boolean value of
// a lowered expression, as the join loop consumes it.
type cpred func(ex *execState) (ok, valid bool)

// lowerPred lowers a filter expression to its EBV form.
func (c *compiler) lowerPred(e Expr) cpred {
	f := c.lowerExpr(e)
	return func(ex *execState) (bool, bool) { return f(ex).EBV() }
}

// isConstExpr reports whether e evaluates to the same Value on every
// row: no variables, no randomness, no pattern probes.
func isConstExpr(e Expr) bool {
	konst := true
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case exVar, exExists:
			konst = false
		case exCall:
			konst = konst && x.name != "RAND" && x.name != "BOUND"
		}
		return konst
	})
	return konst
}

// constExpr is the closure of a folded constant.
func constExpr(v Value) cexpr { return func(*execState) Value { return v } }

// lowerExpr compiles e into a closure over the register file — over the
// projected row, in row mode. A constant subtree is folded: its closure
// runs once, here, with no execution state, which it never reads.
func (c *compiler) lowerExpr(e Expr) cexpr {
	var f cexpr
	switch x := e.(type) {
	case exConst:
		return constExpr(termValue(x.t))
	case exNum:
		return constExpr(numValue(x.n))
	case exBool:
		return constExpr(boolValue(x.b))
	case exVar:
		slot, ok := c.slots[x.name]
		switch {
		case !ok:
			// a variable no pattern binds: unbound on every row
			return constExpr(errValue())
		case c.rows:
			return func(ex *execState) Value { return termValue(ex.borrowRow[slot]) }
		}
		return func(ex *execState) Value {
			id := ex.regs[slot]
			if id == kb.NoTerm {
				return errValue()
			}
			return termValue(ex.k.Term(id))
		}
	case exExists:
		cg := c.exists[x.group]
		neg := x.negate
		return func(ex *execState) Value {
			found, err := ex.runExists(cg)
			if err != nil {
				return errValue()
			}
			return boolValue(found != neg)
		}
	case exNot:
		arg := c.lowerExpr(x.arg)
		f = func(ex *execState) Value {
			b, ok := arg(ex).EBV()
			if !ok {
				return errValue()
			}
			return boolValue(!b)
		}
	case exAnd:
		f = c.lowerLogic(x.l, x.r, false)
	case exOr:
		f = c.lowerLogic(x.l, x.r, true)
	case exCompare:
		f = c.lowerCompare(x)
	case exCall:
		f = c.lowerCall(x)
	default:
		// unreachable with the current parser; evaluate conservatively
		return constExpr(errValue())
	}
	if isConstExpr(e) {
		return constExpr(f(nil))
	}
	return f
}

// lowerLogic lowers && (decisive false) and || (decisive true): either
// operand's decisive EBV decides, an error on the other side
// notwithstanding.
func (c *compiler) lowerLogic(l, r Expr, decisive bool) cexpr {
	lf, rf := c.lowerExpr(l), c.lowerExpr(r)
	return func(ex *execState) Value {
		lb, lok := lf(ex).EBV()
		if lok && lb == decisive {
			return boolValue(decisive)
		}
		rb, rok := rf(ex).EBV()
		if rok && rb == decisive {
			return boolValue(decisive)
		}
		if !lok || !rok {
			return errValue()
		}
		return boolValue(!decisive)
	}
}

// lowerCompare dispatches the comparison operator once at compile time.
func (c *compiler) lowerCompare(x exCompare) cexpr {
	l, r := c.lowerExpr(x.l), c.lowerExpr(x.r)
	switch x.op {
	case "=", "!=":
		neq := x.op == "!="
		return func(ex *execState) Value {
			lv, rv := l(ex), r(ex)
			if lv.IsErr() || rv.IsErr() {
				return errValue()
			}
			eq, ok := valuesEqual(lv, rv)
			if !ok {
				return errValue()
			}
			return boolValue(eq != neq)
		}
	}
	var test func(c int) bool
	switch x.op {
	case "<":
		test = func(c int) bool { return c < 0 }
	case "<=":
		test = func(c int) bool { return c <= 0 }
	case ">":
		test = func(c int) bool { return c > 0 }
	case ">=":
		test = func(c int) bool { return c >= 0 }
	default:
		return constExpr(errValue())
	}
	return func(ex *execState) Value {
		lv, rv := l(ex), r(ex)
		if lv.IsErr() || rv.IsErr() {
			return errValue()
		}
		cmp, ok := valuesOrder(lv, rv)
		if !ok {
			return errValue()
		}
		return boolValue(test(cmp))
	}
}

// lowerCall compiles a builtin call. BOUND and RAND read the execution
// state directly; every other builtin's body is picked from the table
// once, here, and runs on its lowered arguments, evaluated strictly in
// order. REGEX with a constant pattern compiles its automaton once.
func (c *compiler) lowerCall(x exCall) cexpr {
	switch x.name {
	case "BOUND":
		v, isVar := x.args[0].(exVar)
		if !isVar {
			return constExpr(errValue())
		}
		slot, ok := c.slots[v.name]
		if !ok || c.rows {
			// no pattern binds the variable, or it is a projected
			// column, which every row binds
			return constExpr(boolValue(ok))
		}
		return func(ex *execState) Value {
			return boolValue(ex.regs[slot] != kb.NoTerm)
		}
	case "RAND":
		return func(ex *execState) Value {
			return numValue(ex.rand.Float64())
		}
	}
	args := make([]cexpr, len(x.args))
	for i, a := range x.args {
		args[i] = c.lowerExpr(a)
	}
	bi := builtins[x.name]
	switch {
	case bi.fn1 != nil:
		f, a := bi.fn1, args[0]
		return func(ex *execState) Value {
			av := a(ex)
			if av.IsErr() {
				return errValue()
			}
			return f(av)
		}
	case bi.fn2 != nil:
		f, a, b := bi.fn2, args[0], args[1]
		return func(ex *execState) Value {
			av := a(ex)
			if av.IsErr() {
				return errValue()
			}
			bv := b(ex)
			if bv.IsErr() {
				return errValue()
			}
			return f(av, bv)
		}
	}
	if len(args) == 2 {
		args = append(args, constExpr(strValue("")))
	}
	f, a, b, d := bi.fn3, args[0], args[1], args[2]
	if x.name == "REGEX" && isConstExpr(x.args[1]) && (len(x.args) == 2 || isConstExpr(x.args[2])) {
		re := constRegex(b(nil), d(nil))
		f = func(text, _, _ Value) Value {
			s, ok := text.asString()
			if !ok || re == nil {
				return errValue()
			}
			return boolValue(re.MatchString(s))
		}
	}
	return func(ex *execState) Value {
		av := a(ex)
		if av.IsErr() {
			return errValue()
		}
		bv := b(ex)
		if bv.IsErr() {
			return errValue()
		}
		dv := d(ex)
		if dv.IsErr() {
			return errValue()
		}
		return f(av, bv, dv)
	}
}

// constRegex compiles a constant REGEX pattern once, from the folded
// pattern and flags; nil, for a pattern that is not a string or does not
// compile, keeps the always-error answer. An erring pattern or flags
// value never reaches the body.
func constRegex(pat, flags Value) *regexp.Regexp {
	p, ok := pat.asString()
	if !ok {
		return nil
	}
	f, _ := flags.asString()
	re, _ := compileRegex(p, f)
	return re
}
