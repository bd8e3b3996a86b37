package sparql

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF    tokKind = iota
	tokIdent          // bare identifier / keyword (SELECT, FILTER, a, ...)
	tokVar            // ?name
	tokIRI            // <...>
	tokPName          // prefix:local
	tokString         // "..." with optional @lang / ^^<dt> handled by parser
	tokNumber         // 123, 4.5, -1
	tokPunct          // one of { } ( ) . , * = != < > <= >= && || ! + - / ^^ @
)

type token struct {
	kind tokKind
	text string  // raw text (identifier, variable name, punct, IRI value, pname, string value)
	num  float64 // for tokNumber
	pos  int     // byte offset, for errors
}

type lexer struct {
	in   string
	pos  int
	toks []token
}

// lex tokenizes the whole input up front. The token slice is sized once,
// by the white space of the input: a canonical text — what a server is
// sent — separates nearly every token by a blank or a newline, and the
// few it does not (ASC(RAND())) fit the margin; more just grows it.
func lex(in string) ([]token, error) {
	l := &lexer{in: in, toks: make([]token, 0, 4+strings.Count(in, " ")+strings.Count(in, "\n"))}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("sparql: position %d: %s", l.pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.in[l.pos]
	switch {
	case c == '?' || c == '$':
		l.pos++
		name := l.takeWhile(isNameChar)
		if name == "" {
			return token{}, l.errf("empty variable name")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case c == '<':
		// '<' begins an IRI only when a '>' follows before any
		// whitespace; otherwise it is the less-than operator (possibly
		// '<=' handled below).
		if end := iriEnd(l.in[l.pos:]); end > 0 {
			iri := l.in[l.pos+1 : l.pos+end]
			l.pos += end + 1
			return token{kind: tokIRI, text: iri, pos: start}, nil
		}
	case c == '"':
		s, err := l.lexString()
		if err != nil {
			return token{}, err
		}
		return token{kind: tokString, text: s, pos: start}, nil
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.in) && isDigit(l.in[l.pos+1])):
		return l.lexNumber(start)
	case isNameStart(c):
		word := l.takeWhile(isNameChar)
		// prefixed name?
		if l.pos < len(l.in) && l.in[l.pos] == ':' {
			l.pos++
			local := l.takeWhile(isNameChar)
			return token{kind: tokPName, text: word + ":" + local, pos: start}, nil
		}
		return token{kind: tokIdent, text: word, pos: start}, nil
	case c == ':':
		// default-prefix name ":local"
		l.pos++
		local := l.takeWhile(isNameChar)
		return token{kind: tokPName, text: ":" + local, pos: start}, nil
	}
	// punctuation, including two-char operators
	two := ""
	if l.pos+2 <= len(l.in) {
		two = l.in[l.pos : l.pos+2]
	}
	switch two {
	case "!=", "<=", ">=", "&&", "||", "^^":
		l.pos += 2
		return token{kind: tokPunct, text: two, pos: start}, nil
	}
	switch c {
	case '{', '}', '(', ')', '.', ',', ';', '*', '=', '<', '>', '!', '+', '-', '/', '@':
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	}
	r, _ := utf8.DecodeRuneInString(l.in[l.pos:])
	return token{}, l.errf("unexpected character %q", r)
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '#' {
			nl := strings.IndexByte(l.in[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.in)
				return
			}
			l.pos += nl + 1
			continue
		}
		return
	}
}

func (l *lexer) takeWhile(pred func(byte) bool) string {
	start := l.pos
	for l.pos < len(l.in) && pred(l.in[l.pos]) {
		l.pos++
	}
	return l.in[start:l.pos]
}

func (l *lexer) lexString() (string, error) {
	l.pos++ // opening quote
	// A string without escapes is its own bytes: the token is a view of
	// the input, like an IRI's.
	if end := strings.IndexAny(l.in[l.pos:], `"\\`); end >= 0 && l.in[l.pos+end] == '"' {
		s := l.in[l.pos : l.pos+end]
		l.pos += end + 1
		return s, nil
	}
	var sb strings.Builder
	for {
		if l.pos >= len(l.in) {
			return "", l.errf("unterminated string literal")
		}
		c := l.in[l.pos]
		if c == '"' {
			l.pos++
			return sb.String(), nil
		}
		if c == '\\' {
			if l.pos+1 >= len(l.in) {
				return "", l.errf("dangling escape")
			}
			esc := l.in[l.pos+1]
			l.pos += 2
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				return "", l.errf("unknown escape \\%c", esc)
			}
			continue
		}
		sb.WriteByte(c)
		l.pos++
	}
}

func (l *lexer) lexNumber(start int) (token, error) {
	numStr := ""
	if l.in[l.pos] == '-' {
		numStr = "-"
		l.pos++
	}
	numStr += l.takeWhile(isDigit)
	if l.pos < len(l.in) && l.in[l.pos] == '.' && l.pos+1 < len(l.in) && isDigit(l.in[l.pos+1]) {
		l.pos++
		numStr += "." + l.takeWhile(isDigit)
	}
	var f float64
	if _, err := fmt.Sscanf(numStr, "%g", &f); err != nil {
		return token{}, l.errf("bad number %q", numStr)
	}
	return token{kind: tokNumber, text: numStr, num: f, pos: start}, nil
}

// iriEnd returns the index of the closing '>' if s (starting at '<')
// opens an IRI — i.e. '>' appears before any whitespace — or 0 if not.
func iriEnd(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '>':
			return i
		case ' ', '\t', '\n', '\r':
			return 0
		}
	}
	return 0
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || isDigit(c) || c == '-'
}

// keywordEq reports case-insensitive equality against an ASCII keyword.
func keywordEq(s, kw string) bool {
	if len(s) != len(kw) {
		return false
	}
	return strings.EqualFold(s, kw)
}
