package sparql

import (
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// FuzzParse exercises the SPARQL parser with a seed corpus drawn from
// the aligner's real query templates (text and prepared forms). Beyond
// not crashing, it checks the canonicalization invariant the engine's
// RAND() determinism rests on: any query that parses must serialize to
// canonical text that reparses, and that canonical text must be a
// fixpoint of String ∘ Parse. FormOf, which routes a text before it is
// parsed, must name the form the parse then finds. Every accepted query
// also runs on a tiny KB through the compiled engine and the reference
// evaluator (naive_test.go), compared as TestOracleCompiledMatchesNaive
// compares them; an unordered LIMIT or OFFSET may keep different rows
// in each, so those inputs are not run.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// discover window / body sample
		"SELECT ?x ?y WHERE { ?x <http://yago-knowledge.org/resource/wasBornIn> ?y } ORDER BY RAND() LIMIT 200",
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n",
		// predicates-between / equivalence probe
		"SELECT ?p WHERE { <http://x/a> ?p <http://x/b> }",
		"SELECT ?p WHERE { $s ?p $o }",
		// literal attributes
		"SELECT ?p ?v WHERE { <http://x/a> ?p ?v . FILTER ISLITERAL(?v) }",
		"SELECT ?p ?v WHERE { $s ?p ?v . FILTER ISLITERAL(?v) }",
		// head objects
		"SELECT ?y WHERE { <http://x/a> <http://x/p> ?y }",
		// UBS overlap
		`SELECT ?x ?y1 ?y2 WHERE {
  ?x <http://x/a> ?y1 .
  ?x <http://x/b> ?y2 .
  FILTER NOT EXISTS { ?x <http://x/a> ?y2 }
} ORDER BY RAND() LIMIT 560`,
		// general coverage
		"PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?x WHERE { ?x a foaf:Person ; foaf:knows ?y . FILTER (?x != ?y && STRLEN(STR(?x)) > 3) } ORDER BY DESC(?x) LIMIT 10 OFFSET 2",
		`ASK { ?x ?p "lit"@en . FILTER REGEX(?x, "a.c", "i") }`,
		`SELECT * WHERE { ?s ?p "5"^^<http://www.w3.org/2001/XMLSchema#integer> . FILTER (?o > 4.5 || !BOUND(?z)) }`,
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER EXISTS { ?y <http://x/q> ?x } }",
		// filter-expression corpus: nested parens, EXISTS inside boolean
		// operators, NOT EXISTS under negation, mixed datatypes
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (((?y > 3) && ((?y < 9) || (?y = 11))) != false) }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (EXISTS { ?x <http://x/q> ?z . FILTER (?z != ?y) } || STRLEN(STR(?y)) > 2) }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (!(NOT EXISTS { ?x <http://x/q> ?y }) && ISIRI(?y)) }",
		`SELECT ?v WHERE { ?s <http://x/p> ?v . FILTER (?v >= "1990"^^<http://www.w3.org/2001/XMLSchema#gYear> || ?v = "x"@en || ?v < 3.25) }`,
		`SELECT ?v WHERE { ?s ?p ?v . FILTER (DATATYPE(?v) = <http://www.w3.org/2001/XMLSchema#date> && !ISBLANK(?s)) }`,
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (SAMETERM(?x, ?y) || CONTAINS(LCASE(STR(?y)), UCASE(\"a\"))) } ORDER BY RAND() LIMIT 0",
		"# probe\nPREFIX : <http://x/> prefix x: <http://x/> ask where { :a x:p ?o }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	k := fuzzKB()
	naive, compiled := newNaiveEngine(k, 3), NewEngineSeeded(k, 3)
	f.Fuzz(func(t *testing.T, in string) {
		q, err := Parse(in)
		if err != nil {
			return
		}
		if got := FormOf(in); got != q.Form {
			t.Fatalf("FormOf = %d, parsed form %d\ninput: %q", got, q.Form, in)
		}
		canon := q.String()
		q2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical text does not reparse: %v\ninput:  %q\ncanon:  %q", err, in, canon)
		}
		if again := q2.String(); again != canon {
			t.Fatalf("canonicalization is not a fixpoint:\nfirst:  %q\nsecond: %q", canon, again)
		}
		switch {
		case len(q.OrderBy) == 0 && (q.Limit >= 0 || q.Offset > 0), q.LimitVar != "":
			return // unordered paging; a template's LIMIT $n, which only Prepare binds
		case q.Where == nil || countPatterns(q.Where) > 5:
			return // no pattern, or a cross join too large to enumerate per input
		}
		want, werr := naive.Eval(q)
		got, gerr := compiled.Eval(q)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("reference error %v, compiled error %v\ninput: %q", werr, gerr, in)
		}
		if werr != nil {
			return
		}
		if want.Ask != got.Ask {
			t.Fatalf("ASK differs: reference %v, compiled %v\ninput: %q", want.Ask, got.Ask, in)
		}
		cmp := multisetEqual
		if len(q.OrderBy) > 0 {
			cmp = rowsEqual
		}
		if err := cmp(want, got); err != nil {
			t.Fatalf("reference and compiled differ: %v\ninput: %q", err, in)
		}
	})
}

// fuzzKB is FuzzParse's world: IRIs, plain, language-tagged and typed
// literals (numerals among them) under a few predicates.
func fuzzKB() *kb.KB {
	k := kb.New("fuzz")
	x := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	for _, tr := range []rdf.Triple{
		rdf.NewTriple(x("a"), x("p"), x("b")),
		rdf.NewTriple(x("b"), x("p"), x("c")),
		rdf.NewTriple(x("a"), x("q"), x("c")),
		rdf.NewTriple(x("a"), x("p"), rdf.NewLiteral("lit")),
		rdf.NewTriple(x("b"), x("q"), rdf.NewLangLiteral("Abc", "en")),
		rdf.NewTriple(x("c"), x("p"), rdf.NewTypedLiteral("5", rdf.XSDInteger)),
		rdf.NewTriple(x("c"), x("q"), rdf.NewTypedLiteral("1990", rdf.XSDGYear)),
		rdf.NewTriple(x("b"), x("p"), rdf.NewLiteral("4.5")),
	} {
		k.Add(tr)
	}
	k.Freeze()
	return k
}

// countPatterns counts the triple patterns of g and of its EXISTS
// subgroups.
func countPatterns(g *GroupPattern) int {
	n := len(g.Triples)
	for _, f := range g.Filters {
		eachExists(f, func(ex exExists) { n += countPatterns(ex.group) })
	}
	return n
}

// FuzzTemplate exercises template parameter binding: inputs are parsed
// as templates declaring parameters $r (term) and $n (integer). A
// template that parses must render, with bound arguments, to canonical
// text that reparses to its own fixpoint — the invariant that keeps
// prepared RAND() streams identical to the text path — and compiling
// and executing the template against a tiny engine must agree with
// evaluating the rendered text. Inputs that put $name where it cannot
// be bound (projected, in a FILTER or ORDER BY expression, inside an
// expression-nested EXISTS) must fail ParseTemplate gracefully. The
// fingerprint that seeds a prepared execution's RAND() stream must be
// the FNV-64a of the rendered text.
func FuzzTemplate(f *testing.F) {
	seeds := []string{
		// the aligner's real templates
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n",
		"SELECT ?y WHERE { $r <http://x/p> ?y }",
		"SELECT ?p WHERE { $r ?p $n }",
		`SELECT ?x ?y1 ?y2 WHERE {
  ?x $r ?y1 .
  ?x <http://x/b> ?y2 .
  FILTER NOT EXISTS { ?x $r ?y2 }
} ORDER BY RAND() LIMIT $n`,
		// parameters in top-level EXISTS groups (allowed)
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER EXISTS { ?x $r ?z } } LIMIT $n",
		// $name in filter position and other rejected placements
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (?y > $n) }",
		"SELECT ?x WHERE { ?x $r ?y . FILTER (STRLEN(STR($r)) > 1) }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (EXISTS { ?x $r ?z } || ?x != ?y) }",
		"SELECT $r WHERE { ?x <http://x/p> $r }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY $n",
		// nested parens and mixed datatypes around parameter sites
		`SELECT ?x WHERE { ?x $r "5"^^<http://www.w3.org/2001/XMLSchema#integer> . FILTER (((?x != ?x)) || true) } LIMIT $n`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	k := kb.New("fuzz")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/c")
	k.AddIRIs("http://x/a", "http://x/b", "http://x/c")
	k.Freeze()
	eng := NewEngineSeeded(k, 3)
	f.Fuzz(func(t *testing.T, in string) {
		tm, err := ParseTemplate(in, "r", "n")
		if err != nil {
			return
		}
		args := make([]Arg, 2)
		for i, name := range tm.Params() {
			if tm.isInt[i] {
				args[i] = IntArg(4)
			} else {
				args[i] = IRIArg("http://x/p")
			}
			_ = name
		}
		text, err := tm.Text(args...)
		if err != nil {
			t.Fatalf("instantiating a parsed template failed: %v\ninput: %q", err, in)
		}
		if got, want := tm.fingerprint(args), fnv64a(fnvOffset, text); got != want {
			t.Fatalf("fingerprint %#x, FNV-64a of the text %#x\ninput: %q\ntext:  %q", got, want, in, text)
		}
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("instantiated template does not parse: %v\ninput: %q\ntext:  %q", err, in, text)
		}
		if canon := q.String(); canon != text {
			t.Fatalf("instantiated text is not canonical:\ntext:  %q\ncanon: %q", text, canon)
		}
		if q.Form != SelectForm && q.Form != AskForm {
			return
		}
		prep, err := eng.Prepare(tm)
		if err != nil {
			return // engine-level rejection (e.g. int parameter in a pattern) is fine
		}
		got, err := prep.Exec(args...)
		if err != nil {
			t.Fatalf("prepared exec failed: %v\ninput: %q", err, in)
		}
		var want *Result
		if q.Form == AskForm {
			ares, err := eng.Eval(q)
			if err != nil {
				t.Fatalf("text eval failed: %v\ntext: %q", err, text)
			}
			want = ares
			if want.Ask != got.Ask {
				t.Fatalf("prepared ASK %v != text ASK %v for %q", got.Ask, want.Ask, text)
			}
			return
		}
		want, err = eng.Eval(q)
		if err != nil {
			t.Fatalf("text eval failed: %v\ntext: %q", err, text)
		}
		if len(want.Rows) != len(got.Rows) {
			t.Fatalf("prepared/text row counts differ: %d vs %d for %q", len(got.Rows), len(want.Rows), text)
		}
		if len(q.OrderBy) > 0 {
			for i := range want.Rows {
				for j := range want.Rows[i] {
					if want.Rows[i][j] != got.Rows[i][j] {
						t.Fatalf("prepared/text rows differ at %d,%d for %q", i, j, text)
					}
				}
			}
		}
	})
}
