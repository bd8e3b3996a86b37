package sparql

import (
	"strings"
	"testing"

	"sofya/internal/rdf"
)

func TestParseSelectBasic(t *testing.T) {
	q := MustParse(`SELECT ?x ?y WHERE { ?x <http://x/p> ?y . }`)
	if q.Form != SelectForm || q.Distinct {
		t.Fatalf("form/distinct wrong: %+v", q)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "x" || q.Vars[1] != "y" {
		t.Fatalf("vars = %v", q.Vars)
	}
	if len(q.Where.Triples) != 1 {
		t.Fatalf("triples = %v", q.Where.Triples)
	}
	tp := q.Where.Triples[0]
	if !tp.S.IsVar || tp.S.Var != "x" {
		t.Fatalf("subject = %+v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term.Value != "http://x/p" {
		t.Fatalf("predicate = %+v", tp.P)
	}
	if q.Limit != -1 || q.Offset != 0 {
		t.Fatalf("limit/offset = %d/%d", q.Limit, q.Offset)
	}
}

func TestParseSelectStar(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?b <http://x/p> ?a . ?a <http://x/q> ?c }`)
	// SELECT * projects all pattern variables sorted
	want := []string{"a", "b", "c"}
	if len(q.Vars) != 3 {
		t.Fatalf("vars = %v", q.Vars)
	}
	for i := range want {
		if q.Vars[i] != want[i] {
			t.Fatalf("vars = %v, want %v", q.Vars, want)
		}
	}
}

func TestParseDistinctLimitOffset(t *testing.T) {
	q := MustParse(`SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y } LIMIT 10 OFFSET 5`)
	if !q.Distinct || q.Limit != 10 || q.Offset != 5 {
		t.Fatalf("modifiers wrong: %+v", q)
	}
	// OFFSET before LIMIT also accepted
	q2 := MustParse(`SELECT ?x WHERE { ?x <http://x/p> ?y } OFFSET 2 LIMIT 3`)
	if q2.Limit != 3 || q2.Offset != 2 {
		t.Fatalf("modifiers wrong: %+v", q2)
	}
}

func TestParsePrefixes(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?x WHERE { ?x ex:knows ex:alice }`)
	tp := q.Where.Triples[0]
	if tp.P.Term.Value != "http://ex.org/knows" || tp.O.Term.Value != "http://ex.org/alice" {
		t.Fatalf("prefix expansion wrong: %+v", tp)
	}
	// built-in prefixes available without declaration
	q2 := MustParse(`SELECT ?x WHERE { ?x rdf:type yago:Person }`)
	if q2.Where.Triples[0].P.Term.Value != rdf.RDFType {
		t.Fatalf("builtin prefix wrong: %+v", q2.Where.Triples[0])
	}
}

// TestParsePrefixesNotShared: every Parse starts from the same standard
// prefix environment, and a query that rebinds a standard prefix does it
// for itself alone — neither later parses nor a caller's own map see it.
func TestParsePrefixesNotShared(t *testing.T) {
	own := rdf.StandardPrefixes()
	for _, parse := range []func(string) (*Query, error){
		Parse,
		func(q string) (*Query, error) { return ParseWithPrefixes(q, own) },
	} {
		q, err := parse(`PREFIX yago: <http://elsewhere/> PREFIX new: <http://new/> SELECT ?x WHERE { ?x yago:p new:o }`)
		if err != nil {
			t.Fatal(err)
		}
		if tp := q.Where.Triples[0]; tp.P.Term.Value != "http://elsewhere/p" || tp.O.Term.Value != "http://new/o" {
			t.Fatalf("declared prefixes not applied: %+v", tp)
		}
		q, err = parse(`SELECT ?x WHERE { ?x yago:p ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.Where.Triples[0].P.Term.Value; got != "http://yago-knowledge.org/resource/p" {
			t.Fatalf("an earlier query's PREFIX leaked: yago:p = %q", got)
		}
		if _, err := parse(`SELECT ?x WHERE { ?x new:p ?y }`); err == nil {
			t.Fatal("an earlier query's new prefix leaked")
		}
	}
	if base, _ := own.Base("yago"); base != "http://yago-knowledge.org/resource/" {
		t.Fatalf("the caller's prefix map was modified: yago = %q", base)
	}
}

// TestFormOf: the form is read off the first keyword after the PREFIX
// declarations, and whatever does not get as far as ASK reads as SELECT.
func TestFormOf(t *testing.T) {
	for text, want := range map[string]Form{
		"SELECT ?x WHERE { ?x ?p ?o }":                       SelectForm,
		"ASK { ?x ?p ?o }":                                   AskForm,
		"  # a comment\n ask where { ?x ?p ?o }":             AskForm,
		"PREFIX a: <http://a/> PREFIX : <http://b/> ASK { }": AskForm,
		"prefix a: <http://a/> select * where { }":           SelectForm,
		"PREFIX ask: <http://a/> SELECT ?ask WHERE { }":      SelectForm,
		"":                         SelectForm,
		"DESCRIBE <http://x/a>":    SelectForm,
		"PREFIX a:":                SelectForm,
		"PREFIX":                   SelectForm,
		`"ASK"`:                    SelectForm,
		"\x00\xff ASK":             SelectForm,
		"?ask ASK":                 SelectForm,
		"PREFIX a: <http://a/ ASK": SelectForm,
	} {
		if got := FormOf(text); got != want {
			t.Errorf("FormOf(%q) = %d, want %d", text, got, want)
		}
	}
}

func TestParseTypeShorthand(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x a <http://x/Person> }`)
	if q.Where.Triples[0].P.Term.Value != rdf.RDFType {
		t.Fatalf("'a' shorthand not expanded: %+v", q.Where.Triples[0])
	}
}

func TestParsePropertyList(t *testing.T) {
	q := MustParse(`SELECT * WHERE { ?x <http://x/p> ?y ; <http://x/q> ?z . }`)
	if len(q.Where.Triples) != 2 {
		t.Fatalf("property list not expanded: %v", q.Where.Triples)
	}
	if q.Where.Triples[1].S.Var != "x" || q.Where.Triples[1].P.Term.Value != "http://x/q" {
		t.Fatalf("second triple wrong: %+v", q.Where.Triples[1])
	}
}

func TestParseLiteralObjects(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
		?x <http://x/name> "Ada" .
		?x <http://x/label> "Ada"@en .
		?x <http://x/born> "1815"^^xsd:gYear .
		?x <http://x/age> 42 .
		?x <http://x/score> 4.5 .
	}`)
	ts := q.Where.Triples
	if ts[0].O.Term != rdf.NewLiteral("Ada") {
		t.Fatalf("plain literal: %+v", ts[0].O.Term)
	}
	if ts[1].O.Term != rdf.NewLangLiteral("Ada", "en") {
		t.Fatalf("lang literal: %+v", ts[1].O.Term)
	}
	if ts[2].O.Term != rdf.NewTypedLiteral("1815", rdf.XSDGYear) {
		t.Fatalf("typed literal: %+v", ts[2].O.Term)
	}
	if ts[3].O.Term != rdf.NewTypedLiteral("42", rdf.XSDInteger) {
		t.Fatalf("integer literal: %+v", ts[3].O.Term)
	}
	if ts[4].O.Term != rdf.NewTypedLiteral("4.5", rdf.XSDDecimal) {
		t.Fatalf("decimal literal: %+v", ts[4].O.Term)
	}
}

func TestParseFilters(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
		?x <http://x/age> ?a .
		FILTER (?a > 18 && ?a <= 65)
		FILTER REGEX(STR(?x), "^http://x/", "i")
	}`)
	if len(q.Where.Filters) != 2 {
		t.Fatalf("filters = %d", len(q.Where.Filters))
	}
}

func TestParseFilterExists(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE {
		?x <http://x/p> ?y .
		FILTER NOT EXISTS { ?x <http://x/q> ?y }
	}`)
	ex, ok := q.Where.Filters[0].(exExists)
	if !ok || !ex.negate {
		t.Fatalf("filter = %#v", q.Where.Filters[0])
	}
	q2 := MustParse(`SELECT ?x WHERE { ?x <http://x/p> ?y FILTER EXISTS { ?y <http://x/q> ?x } }`)
	ex2, ok := q2.Where.Filters[0].(exExists)
	if !ok || ex2.negate {
		t.Fatalf("filter = %#v", q2.Where.Filters[0])
	}
}

func TestParseAsk(t *testing.T) {
	q := MustParse(`ASK { <http://x/a> <http://x/p> <http://x/b> }`)
	if q.Form != AskForm {
		t.Fatalf("form = %v", q.Form)
	}
}

func TestParseOrderBy(t *testing.T) {
	q := MustParse(`SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY DESC(?y) ?x LIMIT 2`)
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Fatalf("order keys = %+v", q.OrderBy)
	}
	q2 := MustParse(`SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY RAND()`)
	if len(q2.OrderBy) != 1 {
		t.Fatalf("order keys = %+v", q2.OrderBy)
	}
}

func TestParseComments(t *testing.T) {
	q := MustParse(`# leading comment
SELECT ?x WHERE {
  ?x <http://x/p> ?y . # trailing comment
}`)
	if len(q.Where.Triples) != 1 {
		t.Fatalf("triples = %v", q.Where.Triples)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT WHERE { ?x ?p ?y }`,            // no vars and no *
		`SELECT ?x { ?x <http://x/p> }`,        // incomplete triple
		`SELECT ?x WHERE { ?x <http://x/p> ?y`, // unterminated group
		`SELECT ?x WHERE { ?x "lit" ?y }`,      // literal predicate
		`SELECT ?x WHERE { "lit" <http://p> ?y }`, // literal subject
		`SELECT ?x WHERE { ?x <http://x/p> ?y } LIMIT -3`,
		`SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY`,
		`SELECT ?x WHERE { ?x unknown:p ?y }`, // unknown prefix
		`SELECT ?x WHERE { ?x <http://x/p> ?y } garbage`,
		`CONSTRUCT { ?x <http://x/p> ?y } WHERE { ?x <http://x/p> ?y }`,
		`SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER REGEX(?y) }`, // arity
		`SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER NOPE(?y) }`,  // unknown fn
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestParseKeywordsCaseInsensitive(t *testing.T) {
	q, err := Parse(`select distinct ?x where { ?x <http://x/p> ?y } order by ?x limit 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct || q.Limit != 1 || len(q.OrderBy) != 1 {
		t.Fatalf("lowercase keywords mishandled: %+v", q)
	}
}

func TestPatternTermString(t *testing.T) {
	if Variable("x").String() != "?x" {
		t.Fatal("Variable.String")
	}
	if !strings.Contains(Concrete(rdf.NewIRI("http://x/p")).String(), "http://x/p") {
		t.Fatal("Concrete.String")
	}
	tp := TriplePattern{S: Variable("s"), P: Concrete(rdf.NewIRI("http://p")), O: Variable("o")}
	if tp.String() != "?s <http://p> ?o" {
		t.Fatalf("TriplePattern.String = %q", tp.String())
	}
}
