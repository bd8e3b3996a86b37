// Package rdf implements the RDF data model used throughout SOFYA:
// terms (IRIs, literals, blank nodes), triples, prefix maps, and
// N-Triples / tab-separated parsing and serialization.
//
// The model is deliberately minimal: it covers exactly the subset of RDF
// 1.1 needed to represent entity-centric knowledge bases such as YAGO and
// DBpedia — IRIs, plain literals, language-tagged literals and typed
// literals — without the full generality of RDF datasets, graphs, or
// reification.
package rdf

import (
	"fmt"
	"strings"
)

// Kind discriminates the three syntactic categories of RDF terms.
type Kind uint8

const (
	// IRI is an absolute IRI reference such as <http://yago/wasBornIn>.
	IRI Kind = iota
	// Literal is an RDF literal: a lexical form plus optional datatype
	// IRI or language tag.
	Literal
	// Blank is a blank node with a document-scoped label.
	Blank
)

// String returns the kind name, for diagnostics.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Literal:
		return "Literal"
	case Blank:
		return "Blank"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Well-known datatype and vocabulary IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger  = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal  = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate     = "http://www.w3.org/2001/XMLSchema#date"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDGYear    = "http://www.w3.org/2001/XMLSchema#gYear"

	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// Term is an RDF term. The zero value is the empty IRI, which is not a
// valid term; use the constructors.
//
// Terms are small value types and are compared with ==. Two terms are
// equal iff their kind, value, datatype and language tag are all equal.
type Term struct {
	// Kind is the syntactic category.
	Kind Kind
	// Value holds the IRI string for IRI terms, the lexical form for
	// literals, and the label (without the "_:" prefix) for blank nodes.
	Value string
	// Datatype is the datatype IRI for typed literals; empty for plain
	// literals, IRIs and blank nodes. A literal with a language tag has
	// an empty datatype.
	Datatype string
	// Lang is the language tag for language-tagged literals ("en",
	// "fr", ...); empty otherwise.
	Lang string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain (string) literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a typed literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank-node term with the given label (no "_:").
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal of any flavor.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsZero reports whether the term is the zero value (invalid).
func (t Term) IsZero() bool { return t == Term{} }

// String renders the term in N-Triples syntax. IRIs render as <iri>,
// literals as quoted strings with optional @lang or ^^<dt>, blank nodes
// as _:label.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var sb strings.Builder
		sb.WriteByte('"')
		escapeLiteral(&sb, t.Value)
		sb.WriteByte('"')
		if t.Lang != "" {
			sb.WriteByte('@')
			sb.WriteString(t.Lang)
		} else if t.Datatype != "" && t.Datatype != XSDString {
			sb.WriteString("^^<")
			sb.WriteString(t.Datatype)
			sb.WriteByte('>')
		}
		return sb.String()
	default:
		return fmt.Sprintf("<invalid term kind %d>", t.Kind)
	}
}

// Compare orders terms: IRIs < Literals < Blanks, then by value,
// datatype, and language. It returns -1, 0 or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

func escapeLiteral(sb *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\t':
			sb.WriteString(`\t`)
		default:
			sb.WriteRune(r)
		}
	}
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as an N-Triples line (with trailing " .").
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Valid reports whether the triple is structurally valid per RDF: the
// subject is an IRI or blank node, the predicate an IRI, and the object
// any non-zero term.
func (t Triple) Valid() bool {
	if t.S.IsZero() || t.P.IsZero() || t.O.IsZero() {
		return false
	}
	if t.S.IsLiteral() {
		return false
	}
	return t.P.IsIRI()
}
