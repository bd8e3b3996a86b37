package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"sofya/internal/rdf"
)

// Arg is one bound value of a prepared-query template: an RDF term for
// a `$name` slot in a triple pattern, or an integer for `LIMIT $name`.
type Arg struct {
	term  rdf.Term
	n     int
	isInt bool
}

// TermArg binds an RDF term to a pattern parameter.
func TermArg(t rdf.Term) Arg { return Arg{term: t} }

// IRIArg binds an IRI to a pattern parameter.
func IRIArg(iri string) Arg { return Arg{term: rdf.NewIRI(iri)} }

// IntArg binds an integer to a LIMIT parameter.
func IntArg(n int) Arg { return Arg{n: n, isInt: true} }

// Key renders the argument canonically, for cache keys.
func (a Arg) Key() string {
	if a.isInt {
		return strconv.Itoa(a.n)
	}
	return a.term.String()
}

// Term returns the bound term of a pattern argument; ok is false for
// integer (LIMIT) arguments.
func (a Arg) Term() (rdf.Term, bool) { return a.term, !a.isInt }

// Int returns the bound integer of a LIMIT argument; ok is false for
// term arguments.
func (a Arg) Int() (int, bool) { return a.n, a.isInt }

// Template is a parsed, parameterized query: a query AST in which the
// variables named by params stand for constants supplied at execution
// time. Pattern parameters are written `$name` in term positions and
// bound with TermArg/IRIArg; a `LIMIT $name` parameter is bound with
// IntArg. A Template is immutable and safe for concurrent use.
//
// The canonical text of an instantiated template (Text) is byte-for-byte
// the text the same query would have after a parse → String round trip,
// which is what keeps RAND() streams — derived from canonical query
// text — identical between the prepared path and the text path.
type Template struct {
	q      *Query
	params []string
	source string

	// segs/gaps split the canonical text at parameter sites: the
	// instantiated text is segs[0] + render(gaps[0]) + segs[1] + ...
	segs []string
	gaps []textGap

	// isInt[i] reports whether parameter i is a LIMIT parameter.
	isInt []bool
}

// ParseTemplate parses a query template. Every name in params must
// occur in the template — as `$name` in triple-pattern positions or as
// `LIMIT $name` — and may occur several times. Parameters may not be
// projected and may not appear inside FILTER or ORDER BY expressions
// (those constants belong to the template's shape, not its arguments).
func ParseTemplate(text string, params ...string) (*Template, error) {
	if strings.ContainsRune(text, 0) {
		return nil, fmt.Errorf("sparql: template contains NUL")
	}
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	t := &Template{q: q, params: params, source: text, isInt: make([]bool, len(params))}
	idx := make(map[string]int, len(params))
	for i, name := range params {
		if name == "" {
			return nil, fmt.Errorf("sparql: empty template parameter name")
		}
		if _, dup := idx[name]; dup {
			return nil, fmt.Errorf("sparql: duplicate template parameter %q", name)
		}
		idx[name] = i
	}

	for _, v := range q.Vars {
		if _, isParam := idx[v]; isParam {
			return nil, fmt.Errorf("sparql: template parameter $%s cannot be projected", v)
		}
	}
	// Parameters may appear only in triple patterns of groups that the
	// canonical serializer rewrites — the main group and FILTER [NOT]
	// EXISTS groups (at any nesting of those). They may not appear in
	// value expressions, nor in EXISTS groups buried inside boolean
	// expressions (which pattern rewriting cannot reach).
	var exprErr error
	flagParamVar := func(name, where string) {
		if _, isParam := idx[name]; isParam && exprErr == nil {
			exprErr = fmt.Errorf("sparql: template parameter $%s used in %s", name, where)
		}
	}
	var checkParamFree func(g *GroupPattern)
	checkParamFree = func(g *GroupPattern) {
		for _, tp := range g.Triples {
			for _, pt := range []PatternTerm{tp.S, tp.P, tp.O} {
				if pt.IsVar {
					flagParamVar(pt.Var, "an EXISTS nested inside an expression")
				}
			}
		}
		for _, f := range g.Filters {
			eachExists(f, func(ex exExists) { checkParamFree(ex.group) })
		}
	}
	var checkGroup func(g *GroupPattern)
	checkGroup = func(g *GroupPattern) {
		for _, f := range g.Filters {
			if ex, ok := f.(exExists); ok {
				checkGroup(ex.group)
				continue
			}
			for _, name := range exprVars(f) {
				flagParamVar(name, "a FILTER expression")
			}
			eachExists(f, func(ex exExists) { checkParamFree(ex.group) })
		}
	}
	checkGroup(q.Where)
	for _, k := range q.OrderBy {
		for _, name := range exprVars(k.Expr) {
			flagParamVar(name, "ORDER BY")
		}
	}
	if exprErr != nil {
		return nil, exprErr
	}

	// Split the canonical text at every parameter site.
	seen := make([]bool, len(params))
	site := func(pt PatternTerm, _ bool) int {
		if pt.IsVar {
			if i, ok := idx[pt.Var]; ok {
				seen[i] = true
				return i
			}
		}
		return -1
	}
	limit := -1
	if q.LimitVar != "" {
		i, ok := idx[q.LimitVar]
		if !ok {
			return nil, fmt.Errorf("sparql: LIMIT $%s is not a declared parameter", q.LimitVar)
		}
		seen[i] = true
		t.isInt[i] = true
		limit = i
	}
	if t.segs, t.gaps, err = splitSites(q, site, limit, -1); err != nil {
		return nil, err
	}
	for i, name := range params {
		if !seen[i] {
			return nil, fmt.Errorf("sparql: template parameter $%s does not occur in the query", name)
		}
	}
	return t, nil
}

// textGap is one argument site of a split canonical text: where the
// argument at position param is written, as a term or as the digits of
// a LIMIT or OFFSET.
type textGap struct {
	param int
	isInt bool
}

// siteMark is the sentinel that stands for argument i while a query is
// serialized for splitSites. It contains NUL, which the text being split
// must not.
func siteMark(i int) string { return "\x00#" + strconv.Itoa(i) + "\x00" }

// splitSites is the one mark-and-split of a canonical text, shared by
// templates and the engine's skeletons (skeleton.go). It serializes q
// canonically with a sentinel at every argument site — each pattern term
// site maps to an argument position (−1: none; obj says the term is an
// object), the LIMIT when limit ≥ 0 and the OFFSET when offset ≥ 0 — and
// splits the text at the sentinels: the text of arguments a is segs[0] +
// a[gaps[0].param] + segs[1] + … .
func splitSites(q *Query, site func(pt PatternTerm, obj bool) int, limit, offset int) (segs []string, gaps []textGap, err error) {
	marked := q.MapPatterns(func(tp TriplePattern) TriplePattern {
		sub := func(pt PatternTerm, obj bool) PatternTerm {
			if i := site(pt, obj); i >= 0 {
				return Concrete(rdf.NewIRI(siteMark(i)))
			}
			return pt
		}
		return TriplePattern{S: sub(tp.S, false), P: sub(tp.P, false), O: sub(tp.O, true)}
	})
	if limit >= 0 {
		marked.LimitVar = siteMark(limit)
	}
	canon := ""
	if offset >= 0 {
		// OFFSET is the last clause of a canonical text.
		marked.Offset = 0
		canon = "\nOFFSET " + siteMark(offset)
	}
	canon = marked.String() + canon
	rest := canon
	for {
		at := strings.Index(rest, "\x00#")
		if at < 0 {
			break
		}
		end := strings.Index(rest[at+2:], "\x00")
		if end < 0 {
			return nil, nil, fmt.Errorf("sparql: internal template mark error")
		}
		i, err := strconv.Atoi(rest[at+2 : at+2+end])
		if err != nil {
			return nil, nil, fmt.Errorf("sparql: internal template mark error: %v", err)
		}
		seg, tail := rest[:at], rest[at+2+end+1:]
		isInt := i == limit || i == offset
		switch {
		case i == limit:
			// drop the "$" that introduced the limit parameter
			seg = strings.TrimSuffix(seg, "$")
		case !isInt:
			// drop the surrounding <...> of the sentinel IRI: the bound
			// term renders its own delimiters
			seg = strings.TrimSuffix(seg, "<")
			tail = strings.TrimPrefix(tail, ">")
		}
		segs = append(segs, seg)
		gaps = append(gaps, textGap{param: i, isInt: isInt})
		rest = tail
	}
	return append(segs, rest), gaps, nil
}

// MustParseTemplate is ParseTemplate panicking on error, for static
// templates.
func MustParseTemplate(text string, params ...string) *Template {
	t, err := ParseTemplate(text, params...)
	if err != nil {
		panic(err)
	}
	return t
}

// Params returns the declared parameter names in positional order.
func (t *Template) Params() []string { return t.params }

// IntParam reports whether parameter i is an integer (LIMIT) parameter.
func (t *Template) IntParam(i int) bool { return t.isInt[i] }

// Source returns the template text ParseTemplate was given.
func (t *Template) Source() string { return t.source }

// Form returns the query form of the template.
func (t *Template) Form() Form { return t.q.Form }

// Query returns a deep copy of the template's parsed query. Parameters
// appear as ordinary variables (the parser does not distinguish $name
// from ?name); use Params to tell them apart. The copy may be modified
// freely and turned back into a template with TemplateFromQuery — the
// federation layer derives per-shard pushdown templates this way.
func (t *Template) Query() *Query {
	return t.q.MapPatterns(func(tp TriplePattern) TriplePattern { return tp })
}

// TemplateFromQuery renders q — whose params-named variables stand for
// template parameters — back into canonical template text and parses it
// as a Template. Parameters that no longer occur in q (for instance a
// LIMIT parameter on a query whose LIMIT was stripped) must be omitted
// from params.
func TemplateFromQuery(q *Query, params ...string) (*Template, error) {
	idx := make(map[string]int, len(params))
	for i, name := range params {
		idx[name] = i
	}
	marked := q.MapPatterns(func(tp TriplePattern) TriplePattern {
		sub := func(pt PatternTerm) PatternTerm {
			if pt.IsVar {
				if i, ok := idx[pt.Var]; ok {
					return Concrete(rdf.NewIRI(siteMark(i)))
				}
			}
			return pt
		}
		return TriplePattern{S: sub(tp.S), P: sub(tp.P), O: sub(tp.O)}
	})
	if q.LimitVar != "" {
		i, ok := idx[q.LimitVar]
		if !ok {
			return nil, fmt.Errorf("sparql: LIMIT $%s is not a declared parameter", q.LimitVar)
		}
		marked.LimitVar = siteMark(i)
	}
	text := marked.String()
	for i, name := range params {
		// Pattern sites render the sentinel as an IRI; the LIMIT site
		// renders it after the "$" the serializer emits for LimitVar.
		text = strings.ReplaceAll(text, "<"+siteMark(i)+">", "$"+name)
		text = strings.ReplaceAll(text, siteMark(i), name)
	}
	return ParseTemplate(text, params...)
}

// checkArgs validates positional args against the declared parameters.
func (t *Template) checkArgs(args []Arg) error {
	if len(args) != len(t.params) {
		return fmt.Errorf("sparql: template needs %d args, got %d", len(t.params), len(args))
	}
	for i, a := range args {
		if a.isInt != t.isInt[i] {
			kind := "a term"
			if t.isInt[i] {
				kind = "an integer"
			}
			return fmt.Errorf("sparql: template parameter $%s needs %s argument", t.params[i], kind)
		}
		if a.isInt && a.n < 0 {
			return fmt.Errorf("sparql: template parameter $%s: negative LIMIT", t.params[i])
		}
	}
	return nil
}

// Text renders the canonical text of the template instantiated with
// args — exactly the String() of the equivalent concrete query.
func (t *Template) Text(args ...Arg) (string, error) {
	if err := t.checkArgs(args); err != nil {
		return "", err
	}
	return t.text(args), nil
}

// text is Text after argument validation. The text is assembled in a
// stack buffer, arguments written by Term.Append, and copied out once: a
// text of up to 1 KiB is one allocation.
func (t *Template) text(args []Arg) string {
	var buf [1 << 10]byte
	b := buf[:0]
	for i, seg := range t.segs {
		b = append(b, seg...)
		if i < len(t.gaps) {
			g := t.gaps[i]
			if g.isInt {
				b = strconv.AppendInt(b, int64(args[g.param].n), 10)
			} else {
				b = args[g.param].term.Append(b)
			}
		}
	}
	return string(b)
}

// fingerprint is the FNV-64a hash of text(args), the canonical text that
// seeds an execution's RAND() stream, taken over the segments and the
// arguments as text writes them — the same bytes, literals escaped alike
// — without rendering the text.
func (t *Template) fingerprint(args []Arg) uint64 {
	var buf [256]byte // a longer term spills to the heap, hashed alike
	h := uint64(fnvOffset)
	for i, seg := range t.segs {
		h = fnv64a(h, seg)
		if i < len(t.gaps) {
			g := t.gaps[i]
			if g.isInt {
				h = fnv64a(h, strconv.AppendInt(buf[:0], int64(args[g.param].n), 10))
			} else {
				h = fnv64a(h, args[g.param].term.Append(buf[:0]))
			}
		}
	}
	return h
}
