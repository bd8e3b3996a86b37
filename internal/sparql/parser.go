package sparql

import (
	"fmt"
	"strconv"

	"sofya/internal/rdf"
)

// stdPrefixes is the prefix environment every Parse starts from. It is
// shared and never written: a parser copies it before applying its first
// PREFIX declaration.
var stdPrefixes = rdf.StandardPrefixes()

// Parse parses a SPARQL query using the standard prefixes
// (rdf.StandardPrefixes) as the initial prefix environment; PREFIX
// declarations in the query extend or override it.
func Parse(query string) (*Query, error) {
	return ParseWithPrefixes(query, stdPrefixes)
}

// ParseWithPrefixes parses a SPARQL query with a caller-supplied prefix
// environment. The map is never modified: in-query PREFIX declarations
// apply to a copy, made when the first one is met.
func ParseWithPrefixes(query string, prefixes *rdf.PrefixMap) (*Query, error) {
	toks, err := lex(query)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prefixes: prefixes}
	return p.query()
}

// FormOf reports the form of a query from its leading tokens alone: the
// keyword that follows the PREFIX declarations. It is for callers that
// must route a query text before something else parses it — text that
// does not get as far as ASK reads as SELECT, and the parse reports
// what is wrong with it.
func FormOf(query string) Form {
	l := &lexer{in: query}
	for {
		t, err := l.next()
		if err != nil || t.kind != tokIdent {
			return SelectForm
		}
		switch {
		case keywordEq(t.text, "ASK"):
			return AskForm
		case keywordEq(t.text, "PREFIX"):
			// "PREFIX name: <iri>": two tokens; the parser checks them.
			for i := 0; i < 2; i++ {
				if t, err = l.next(); err != nil || t.kind == tokEOF {
					return SelectForm
				}
			}
		default:
			return SelectForm
		}
	}
}

// MustParse parses a query and panics on error; for tests and examples.
func MustParse(query string) *Query {
	q, err := Parse(query)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks     []token
	pos      int
	prefixes *rdf.PrefixMap
	// ownPrefixes is set once prefixes is the parser's private copy.
	ownPrefixes bool
}

func (p *parser) peek() token { return p.toks[p.pos] }

// take consumes and returns the current token. The trailing EOF token
// is never consumed, so peek stays in bounds on any malformed input.
func (p *parser) take() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: near position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) keyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && keywordEq(t.text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

func (p *parser) query() (*Query, error) {
	for p.keyword("PREFIX") {
		if err := p.prefixDecl(); err != nil {
			return nil, err
		}
	}
	q := &Query{Limit: -1}
	switch {
	case p.keyword("SELECT"):
		q.Form = SelectForm
		if p.keyword("DISTINCT") {
			q.Distinct = true
		}
		if p.punct("*") {
			// all vars
		} else {
			for p.peek().kind == tokVar {
				q.Vars = append(q.Vars, p.take().text)
			}
			if len(q.Vars) == 0 {
				return nil, p.errf("SELECT needs * or at least one variable")
			}
		}
	case p.keyword("ASK"):
		q.Form = AskForm
	default:
		return nil, p.errf("expected SELECT or ASK, got %q", p.peek().text)
	}
	// WHERE is optional before '{' per the grammar
	p.keyword("WHERE")
	g, err := p.groupPattern()
	if err != nil {
		return nil, err
	}
	q.Where = g

	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			key, ok, err := p.orderKey()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			q.OrderBy = append(q.OrderBy, key)
		}
		if len(q.OrderBy) == 0 {
			return nil, p.errf("ORDER BY needs at least one key")
		}
	}
	// LIMIT and OFFSET in either order
	for {
		switch {
		case p.keyword("LIMIT"):
			if t := p.peek(); t.kind == tokVar {
				// "LIMIT $n": a template parameter slot.
				p.pos++
				q.LimitVar = t.text
			} else {
				n, err := p.integer()
				if err != nil {
					return nil, err
				}
				q.Limit = n
			}
		case p.keyword("OFFSET"):
			n, err := p.integer()
			if err != nil {
				return nil, err
			}
			q.Offset = n
		default:
			goto done
		}
	}
done:
	if !p.atEOF() {
		return nil, p.errf("trailing input %q", p.peek().text)
	}
	if q.Form == SelectForm && len(q.Vars) == 0 {
		q.Vars = q.Where.AllVars()
	}
	return q, nil
}

func (p *parser) prefixDecl() error {
	t := p.peek()
	if t.kind != tokPName {
		return p.errf("expected prefix declaration name, got %q", t.text)
	}
	p.pos++
	// t.text is "prefix:" possibly with empty local part
	name := t.text
	if name[len(name)-1] != ':' {
		return p.errf("malformed PREFIX name %q", name)
	}
	iriTok := p.take()
	if iriTok.kind != tokIRI {
		return p.errf("expected IRI after PREFIX %q", name)
	}
	if !p.ownPrefixes {
		own := rdf.NewPrefixMap()
		for _, prefix := range p.prefixes.Prefixes() {
			base, _ := p.prefixes.Base(prefix)
			own.Add(prefix, base)
		}
		p.prefixes, p.ownPrefixes = own, true
	}
	p.prefixes.Add(name[:len(name)-1], iriTok.text)
	return nil
}

func (p *parser) integer() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errf("expected integer, got %q", t.text)
	}
	p.pos++
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("expected integer, got %q", t.text)
	}
	if n < 0 {
		return 0, p.errf("expected non-negative integer, got %d", n)
	}
	return n, nil
}

func (p *parser) orderKey() (OrderKey, bool, error) {
	switch {
	case p.keyword("ASC"):
		e, err := p.parenExpr()
		return OrderKey{Expr: e}, true, err
	case p.keyword("DESC"):
		e, err := p.parenExpr()
		return OrderKey{Expr: e, Desc: true}, true, err
	}
	t := p.peek()
	if t.kind == tokVar {
		p.pos++
		return OrderKey{Expr: exVar{name: t.text}}, true, nil
	}
	if t.kind == tokIdent {
		if _, ok := builtins[upper(t.text)]; ok {
			e, err := p.primaryExpr()
			return OrderKey{Expr: e}, true, err
		}
	}
	return OrderKey{}, false, nil
}

func (p *parser) parenExpr() (Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *parser) groupPattern() (*GroupPattern, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	g := &GroupPattern{}
	for {
		if p.punct("}") {
			return g, nil
		}
		if p.atEOF() {
			return nil, p.errf("unterminated group pattern")
		}
		if p.keyword("FILTER") {
			f, err := p.filter()
			if err != nil {
				return nil, err
			}
			g.Filters = append(g.Filters, f)
			p.punct(".") // optional separator
			continue
		}
		tp, err := p.triplePattern()
		if err != nil {
			return nil, err
		}
		g.Triples = append(g.Triples, tp)
		// property-object list shorthand: s p1 o1 ; p2 o2 .
		for p.punct(";") {
			if p.peek().kind == tokPunct && (p.peek().text == "." || p.peek().text == "}") {
				break
			}
			pt, err := p.patternTerm(false)
			if err != nil {
				return nil, err
			}
			ot, err := p.patternTerm(true)
			if err != nil {
				return nil, err
			}
			g.Triples = append(g.Triples, TriplePattern{S: tp.S, P: pt, O: ot})
		}
		p.punct(".") // optional trailing separator
	}
}

func (p *parser) filter() (Expr, error) {
	// FILTER EXISTS { ... } | FILTER NOT EXISTS { ... } | FILTER ( expr ) |
	// FILTER builtinCall
	if p.keyword("EXISTS") {
		g, err := p.groupPattern()
		if err != nil {
			return nil, err
		}
		return exExists{group: g}, nil
	}
	if p.keyword("NOT") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		g, err := p.groupPattern()
		if err != nil {
			return nil, err
		}
		return exExists{negate: true, group: g}, nil
	}
	if p.peek().kind == tokPunct && p.peek().text == "(" {
		return p.parenExpr()
	}
	return p.primaryExpr()
}

func (p *parser) triplePattern() (TriplePattern, error) {
	s, err := p.patternTerm(false)
	if err != nil {
		return TriplePattern{}, err
	}
	pr, err := p.patternTerm(false)
	if err != nil {
		return TriplePattern{}, err
	}
	o, err := p.patternTerm(true)
	if err != nil {
		return TriplePattern{}, err
	}
	return TriplePattern{S: s, P: pr, O: o}, nil
}

// patternTerm parses one position of a triple pattern. allowLiteral
// permits literal objects.
func (p *parser) patternTerm(allowLiteral bool) (PatternTerm, error) {
	t := p.peek()
	switch t.kind {
	case tokVar:
		p.pos++
		return Variable(t.text), nil
	case tokIRI:
		p.pos++
		return Concrete(rdf.NewIRI(t.text)), nil
	case tokPName:
		p.pos++
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return PatternTerm{}, p.errf("%v", err)
		}
		return Concrete(rdf.NewIRI(iri)), nil
	case tokIdent:
		// 'a' is rdf:type shorthand
		if t.text == "a" {
			p.pos++
			return Concrete(rdf.NewIRI(rdf.RDFType)), nil
		}
		return PatternTerm{}, p.errf("unexpected identifier %q in triple pattern", t.text)
	case tokString:
		if !allowLiteral {
			return PatternTerm{}, p.errf("literal not allowed in this position")
		}
		p.pos++
		lit, err := p.literalTail(t.text)
		if err != nil {
			return PatternTerm{}, err
		}
		return Concrete(lit), nil
	case tokNumber:
		if !allowLiteral {
			return PatternTerm{}, p.errf("literal not allowed in this position")
		}
		p.pos++
		dt := rdf.XSDInteger
		for _, c := range t.text {
			if c == '.' {
				dt = rdf.XSDDecimal
			}
		}
		return Concrete(rdf.NewTypedLiteral(t.text, dt)), nil
	default:
		return PatternTerm{}, p.errf("unexpected token %q in triple pattern", t.text)
	}
}

// literalTail parses the optional @lang / ^^<dt> suffix after a string.
func (p *parser) literalTail(lex string) (rdf.Term, error) {
	if p.punct("@") {
		t := p.take()
		if t.kind != tokIdent {
			return rdf.Term{}, p.errf("expected language tag")
		}
		return rdf.NewLangLiteral(lex, t.text), nil
	}
	if p.punct("^^") {
		t := p.take()
		switch t.kind {
		case tokIRI:
			return rdf.NewTypedLiteral(lex, t.text), nil
		case tokPName:
			iri, err := p.prefixes.Expand(t.text)
			if err != nil {
				return rdf.Term{}, p.errf("%v", err)
			}
			return rdf.NewTypedLiteral(lex, iri), nil
		default:
			return rdf.Term{}, p.errf("expected datatype IRI")
		}
	}
	return rdf.NewLiteral(lex), nil
}

// expr parses a full boolean expression with precedence:
// || < && < comparison < unary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("||") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = exOr{l: l, r: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.punct("&&") {
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = exAnd{l: l, r: r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.pos++
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return exCompare{op: t.text, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.punct("!") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return exNot{arg: e}, nil
	}
	return p.primaryExpr()
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokPunct:
		if t.text == "(" {
			return p.parenExpr()
		}
	case tokVar:
		p.pos++
		return exVar{name: t.text}, nil
	case tokNumber:
		p.pos++
		return exNum{n: t.num}, nil
	case tokString:
		p.pos++
		lit, err := p.literalTail(t.text)
		if err != nil {
			return nil, err
		}
		return exConst{t: lit}, nil
	case tokIRI:
		p.pos++
		return exConst{t: rdf.NewIRI(t.text)}, nil
	case tokPName:
		p.pos++
		iri, err := p.prefixes.Expand(t.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return exConst{t: rdf.NewIRI(iri)}, nil
	case tokIdent:
		name := upper(t.text)
		if keywordEq(name, "TRUE") {
			p.pos++
			return exBool{b: true}, nil
		}
		if keywordEq(name, "FALSE") {
			p.pos++
			return exBool{b: false}, nil
		}
		if keywordEq(name, "NOT") {
			// NOT EXISTS {...} inside a larger expression
			p.pos++
			if err := p.expectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			g, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			return exExists{negate: true, group: g}, nil
		}
		if keywordEq(name, "EXISTS") {
			p.pos++
			g, err := p.groupPattern()
			if err != nil {
				return nil, err
			}
			return exExists{group: g}, nil
		}
		if b, ok := builtins[name]; ok {
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			var args []Expr
			if !p.punct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.punct(",") {
						continue
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			if len(args) < b.minArgs || len(args) > b.maxArgs {
				return nil, p.errf("%s takes %d..%d arguments, got %d", name, b.minArgs, b.maxArgs, len(args))
			}
			return exCall{name: name, args: args}, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
