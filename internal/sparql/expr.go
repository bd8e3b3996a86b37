package sparql

import (
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"

	"sofya/internal/rdf"
)

// Value is the result of evaluating an expression: a boolean, a number,
// a string, an RDF term, or an evaluation error (which FILTER treats as
// false, per SPARQL semantics).
type Value struct {
	kind uint8
	b    bool
	n    float64
	s    string
	t    rdf.Term
}

const (
	vErr uint8 = iota
	vBool
	vNum
	vStr
	vTerm
)

func errValue() Value          { return Value{kind: vErr} }
func boolValue(b bool) Value   { return Value{kind: vBool, b: b} }
func numValue(n float64) Value { return Value{kind: vNum, n: n} }
func strValue(s string) Value  { return Value{kind: vStr, s: s} }
func termValue(t rdf.Term) Value {
	return Value{kind: vTerm, t: t}
}

// IsErr reports whether the value is an evaluation error.
func (v Value) IsErr() bool { return v.kind == vErr }

// EBV computes the SPARQL effective boolean value. The second result is
// false when no EBV exists (type error).
func (v Value) EBV() (bool, bool) {
	switch v.kind {
	case vBool:
		return v.b, true
	case vNum:
		return v.n != 0, true
	case vStr:
		return v.s != "", true
	case vTerm:
		if v.t.Kind != rdf.Literal {
			return false, false
		}
		if f, ok := numericLexical(v.t); ok {
			return f != 0, true
		}
		if v.t.Datatype == rdf.XSDBoolean {
			return v.t.Value == "true" || v.t.Value == "1", true
		}
		return v.t.Value != "", true
	default:
		return false, false
	}
}

// asNumber attempts numeric coercion.
func (v Value) asNumber() (float64, bool) {
	switch v.kind {
	case vNum:
		return v.n, true
	case vTerm:
		return numericLexical(v.t)
	default:
		return 0, false
	}
}

// asString attempts string coercion (plain literals, xsd:string, vStr).
func (v Value) asString() (string, bool) {
	switch v.kind {
	case vStr:
		return v.s, true
	case vTerm:
		if v.t.Kind == rdf.Literal {
			return v.t.Value, true
		}
		return "", false
	default:
		return "", false
	}
}

// numericLexical reads a literal as a number when its datatype is a
// numeric one (gYear included) or it is plain, and its lexical form is
// an XSD numeral: an optional sign, digits with an optional fraction,
// and an optional exponent; xsd:double also spells INF, +INF, -INF and
// NaN. Plain literals that look numeric participate in numeric
// comparison, which is how YAGO-style TSV dumps behave; strconv's other
// spellings ("inf", "Infinity", hex floats) are not numbers here.
func numericLexical(t rdf.Term) (float64, bool) {
	if t.Kind != rdf.Literal {
		return 0, false
	}
	switch t.Datatype {
	case rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDGYear, "":
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(t.Value, 64)
	switch {
	case err != nil:
		return 0, false
	case strings.Trim(t.Value, "0123456789+-.eE") == "":
		return f, true
	}
	switch t.Value {
	case "INF", "+INF", "-INF", "NaN":
		return f, t.Datatype == rdf.XSDDouble
	}
	return 0, false
}

// Expr is a parsed SPARQL expression. The compiler lowers it to closures
// (cexpr.go), the one evaluator; the node types carry no behaviour but
// their rendering.
type Expr interface {
	// String renders the expression approximately in SPARQL syntax.
	String() string
}

type exVar struct{ name string }

func (x exVar) String() string { return "?" + x.name }

type exConst struct{ t rdf.Term }

func (x exConst) String() string { return x.t.String() }

type exNum struct{ n float64 }

func (x exNum) String() string { return strconv.FormatFloat(x.n, 'g', -1, 64) }

type exBool struct{ b bool }

func (x exBool) String() string { return strconv.FormatBool(x.b) }

type exNot struct{ arg Expr }

func (x exNot) String() string { return "!(" + x.arg.String() + ")" }

type exAnd struct{ l, r Expr }

func (x exAnd) String() string { return "(" + x.l.String() + " && " + x.r.String() + ")" }

type exOr struct{ l, r Expr }

func (x exOr) String() string { return "(" + x.l.String() + " || " + x.r.String() + ")" }

type exCompare struct {
	op   string // = != < <= > >=
	l, r Expr
}

func (x exCompare) String() string {
	return "(" + x.l.String() + " " + x.op + " " + x.r.String() + ")"
}

// valuesEqual implements SPARQL-style equality with numeric coercion.
func valuesEqual(l, r Value) (bool, bool) {
	if ln, ok := l.asNumber(); ok {
		if rn, ok := r.asNumber(); ok {
			return ln == rn, true
		}
	}
	if ls, ok := l.asString(); ok {
		if rs, ok := r.asString(); ok {
			// language tags distinguish literals
			if l.kind == vTerm && r.kind == vTerm && l.t.Lang != r.t.Lang {
				return false, true
			}
			return ls == rs, true
		}
	}
	if l.kind == vBool && r.kind == vBool {
		return l.b == r.b, true
	}
	if l.kind == vTerm && r.kind == vTerm {
		return l.t == r.t, true
	}
	return false, false
}

// valuesOrder implements <,> comparisons: numeric if both coercible,
// else string, else full term order.
func valuesOrder(l, r Value) (int, bool) {
	if ln, ok := l.asNumber(); ok {
		if rn, ok := r.asNumber(); ok {
			switch {
			case ln < rn:
				return -1, true
			case ln > rn:
				return 1, true
			default:
				return 0, true
			}
		}
	}
	if ls, ok := l.asString(); ok {
		if rs, ok := r.asString(); ok {
			return strings.Compare(ls, rs), true
		}
	}
	if l.kind == vTerm && r.kind == vTerm {
		return l.t.Compare(r.t), true
	}
	return 0, false
}

type exCall struct {
	name string // upper-cased
	args []Expr
}

func (x exCall) String() string {
	parts := make([]string, len(x.args))
	for i, a := range x.args {
		parts[i] = a.String()
	}
	return x.name + "(" + strings.Join(parts, ", ") + ")"
}

// builtin is one builtin function: its argument-count range and its
// body. A body runs on its arguments' values, evaluated in order and
// none an error: every builtin is strict but BOUND and RAND, which read
// the execution's registers and PRNG and have no body (lowerCall lowers
// them itself). A body takes one Value per argument up to maxArgs; a
// call that leaves the last one out passes the empty string for it.
type builtin struct {
	minArgs, maxArgs int
	fn1              func(a Value) Value
	fn2              func(a, b Value) Value
	fn3              func(a, b, c Value) Value
}

// builtins is the one table of builtin functions, by upper-cased name:
// the parser checks arities against it and lowerCall picks bodies from
// it. It is a package-level var, not filled by init, because package
// variables that parse queries are initialized before init runs.
var builtins = map[string]builtin{
	"RAND":      {},
	"BOUND":     {minArgs: 1, maxArgs: 1},
	"STR":       {minArgs: 1, maxArgs: 1, fn1: builtinStr},
	"LANG":      {minArgs: 1, maxArgs: 1, fn1: builtinLang},
	"DATATYPE":  {minArgs: 1, maxArgs: 1, fn1: builtinDatatype},
	"ISIRI":     {minArgs: 1, maxArgs: 1, fn1: builtinIsIRI},
	"ISURI":     {minArgs: 1, maxArgs: 1, fn1: builtinIsIRI},
	"ISLITERAL": {minArgs: 1, maxArgs: 1, fn1: func(v Value) Value { return boolValue(v.kind == vTerm && v.t.IsLiteral()) }},
	"ISBLANK":   {minArgs: 1, maxArgs: 1, fn1: func(v Value) Value { return boolValue(v.kind == vTerm && v.t.IsBlank()) }},
	"STRLEN":    {minArgs: 1, maxArgs: 1, fn1: onString(func(s string) Value { return numValue(float64(utf8.RuneCountInString(s))) })},
	"LCASE":     {minArgs: 1, maxArgs: 1, fn1: onString(func(s string) Value { return strValue(strings.ToLower(s)) })},
	"UCASE":     {minArgs: 1, maxArgs: 1, fn1: onString(func(s string) Value { return strValue(strings.ToUpper(s)) })},
	"SAMETERM":  {minArgs: 2, maxArgs: 2, fn2: builtinSameTerm},
	"CONTAINS":  {minArgs: 2, maxArgs: 2, fn2: onStrings(strings.Contains)},
	"STRSTARTS": {minArgs: 2, maxArgs: 2, fn2: onStrings(strings.HasPrefix)},
	"STRENDS":   {minArgs: 2, maxArgs: 2, fn2: onStrings(strings.HasSuffix)},
	"REGEX":     {minArgs: 2, maxArgs: 3, fn3: builtinRegex},
}

func builtinStr(v Value) Value {
	switch v.kind {
	case vTerm:
		return strValue(v.t.Value)
	case vStr:
		return strValue(v.s)
	case vNum:
		return strValue(strconv.FormatFloat(v.n, 'g', -1, 64))
	case vBool:
		return strValue(strconv.FormatBool(v.b))
	}
	return errValue()
}

func builtinLang(v Value) Value {
	if v.kind == vTerm && v.t.Kind == rdf.Literal {
		return strValue(v.t.Lang)
	}
	return errValue()
}

// builtinDatatype is SPARQL 1.1's DATATYPE: a plain literal is an
// xsd:string, a language-tagged one an rdf:langString.
func builtinDatatype(v Value) Value {
	if v.kind != vTerm || v.t.Kind != rdf.Literal {
		return errValue()
	}
	dt := v.t.Datatype
	switch {
	case dt != "":
	case v.t.Lang != "":
		dt = rdf.RDFLangString
	default:
		dt = rdf.XSDString
	}
	return termValue(rdf.NewIRI(dt))
}

func builtinIsIRI(v Value) Value { return boolValue(v.kind == vTerm && v.t.IsIRI()) }

func builtinSameTerm(a, b Value) Value {
	if a.kind == vTerm && b.kind == vTerm {
		return boolValue(a.t == b.t)
	}
	return errValue()
}

// builtinRegex compiles its pattern on every call; lowerCall compiles a
// constant pattern once instead (constRegex).
func builtinRegex(text, pat, flags Value) Value {
	s, ok1 := text.asString()
	p, ok2 := pat.asString()
	if !ok1 || !ok2 {
		return errValue()
	}
	f, _ := flags.asString()
	re, err := compileRegex(p, f)
	if err != nil {
		return errValue()
	}
	return boolValue(re.MatchString(s))
}

// onString lifts a string function to a body that errs on a value with
// no string form.
func onString(f func(string) Value) func(Value) Value {
	return func(v Value) Value {
		s, ok := v.asString()
		if !ok {
			return errValue()
		}
		return f(s)
	}
}

// onStrings lifts a string predicate to a two-argument body.
func onStrings(f func(a, b string) bool) func(a, b Value) Value {
	return func(a, b Value) Value {
		as, ok1 := a.asString()
		bs, ok2 := b.asString()
		if !ok1 || !ok2 {
			return errValue()
		}
		return boolValue(f(as, bs))
	}
}

// compileRegex builds the Go regexp for a SPARQL REGEX pattern with the
// given flags (only "i" is honored).
func compileRegex(pat, flags string) (*regexp.Regexp, error) {
	if strings.Contains(flags, "i") {
		pat = "(?i)" + pat
	}
	return regexp.Compile(pat)
}

type exExists struct {
	negate bool
	group  *GroupPattern
}

// String renders the EXISTS in parseable inline form, so that
// expressions embedding it — e.g. `FILTER (EXISTS { ... } || ...)` —
// serialize to canonical text that reparses (the fixpoint invariant
// RAND() determinism and text-keyed caching rest on).
func (x exExists) String() string {
	var sb strings.Builder
	if x.negate {
		sb.WriteString("NOT ")
	}
	sb.WriteString("EXISTS { ")
	writeInlineGroup(&sb, x.group)
	sb.WriteString("}")
	return sb.String()
}

// writeInlineGroup serializes a group pattern on one line.
func writeInlineGroup(sb *strings.Builder, g *GroupPattern) {
	if g == nil {
		return
	}
	for _, tp := range g.Triples {
		sb.WriteString(tp.String() + " . ")
	}
	for _, f := range g.Filters {
		if ex, ok := f.(exExists); ok {
			if ex.negate {
				sb.WriteString("FILTER NOT EXISTS { ")
			} else {
				sb.WriteString("FILTER EXISTS { ")
			}
			writeInlineGroup(sb, ex.group)
			sb.WriteString("} ")
			continue
		}
		sb.WriteString("FILTER (" + f.String() + ") ")
	}
}

// walkExpr calls visit on e and, while visit returns true, on each of
// its operands, depth first in syntactic order. It does not enter an
// EXISTS group: a caller that needs the group's filters walks them
// itself. It is the one traversal of the node kinds; the lowering
// (cexpr.go) is the one evaluation.
func walkExpr(e Expr, visit func(Expr) bool) {
	if !visit(e) {
		return
	}
	switch x := e.(type) {
	case exNot:
		walkExpr(x.arg, visit)
	case exAnd:
		walkExpr(x.l, visit)
		walkExpr(x.r, visit)
	case exOr:
		walkExpr(x.l, visit)
		walkExpr(x.r, visit)
	case exCompare:
		walkExpr(x.l, visit)
		walkExpr(x.r, visit)
	case exCall:
		for _, a := range x.args {
			walkExpr(a, visit)
		}
	}
}

// eachExists applies fn to every EXISTS node of an expression, in
// syntactic order.
func eachExists(e Expr, fn func(exExists)) {
	walkExpr(e, func(x Expr) bool {
		if ex, ok := x.(exExists); ok {
			fn(ex)
		}
		return true
	})
}

// exprVars collects the variables an expression mentions (EXISTS
// subgroups are existential and excluded).
func exprVars(e Expr) []string {
	var out []string
	walkExpr(e, func(x Expr) bool {
		if v, ok := x.(exVar); ok {
			out = append(out, v.name)
		}
		return true
	})
	return out
}

// exprUsesRand reports whether the expression draws from the RAND()
// stream anywhere, including inside EXISTS subgroup filters.
func exprUsesRand(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		switch x := x.(type) {
		case exCall:
			found = found || x.name == "RAND"
		case exExists:
			for _, f := range x.group.Filters {
				found = found || exprUsesRand(f)
			}
		}
		return !found
	})
	return found
}
