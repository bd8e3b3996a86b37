package sparql

// oracle_test.go is the differential oracle: it runs the preserved
// tree-walking reference evaluator (naive_test.go) and the compiled
// slot-based engine over randomized synthetic worlds and asserts
// identical results — byte-identical rows for every ordered query,
// ORDER BY RAND() streams included, and identical row multisets for
// unordered queries (whose row order SPARQL leaves undefined and the
// cost-based join order may legitimately permute).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/synth"
)

// subjectsWith lists p's distinct subjects in term order.
func subjectsWith(k *kb.KB, p kb.TermID) []kb.TermID {
	var out []kb.TermID
	k.EachFactOf(p, func(s, _ kb.TermID) bool {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
		return true
	})
	return out
}

// oracleQueries builds a corpus of query texts over a world KB,
// covering the aligner's real probe shapes plus joins, filters,
// DISTINCT, EXISTS and paging.
func oracleQueries(k *kb.KB, rng *rand.Rand) []string {
	rels := k.Relations()
	relIRI := func() string {
		t := k.Term(rels[rng.Intn(len(rels))])
		return t.Value
	}
	subjIRI := func(p kb.TermID) string {
		subs := subjectsWith(k, p)
		return k.Term(subs[rng.Intn(len(subs))]).Value
	}
	var qs []string
	for i := 0; i < 6; i++ {
		r := relIRI()
		// discover / body-sample shape
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT %d", r, 5+rng.Intn(40)))
		// head-objects shape
		p := rels[rng.Intn(len(rels))]
		qs = append(qs, fmt.Sprintf(
			"SELECT ?y WHERE { <%s> <%s> ?y }", subjIRI(p), k.Term(p).Value))
		// predicates-between shape
		x := subjIRI(p)
		objs := k.ObjectsOf(k.LookupIRI(x), p)
		if len(objs) > 0 {
			qs = append(qs, fmt.Sprintf(
				"SELECT ?p WHERE { <%s> ?p %s }", x, k.Term(objs[rng.Intn(len(objs))])))
		}
		// literal-attributes shape
		qs = append(qs, fmt.Sprintf(
			"SELECT ?p ?v WHERE { <%s> ?p ?v . FILTER ISLITERAL(?v) }", x))
		// UBS overlap shape (two-pattern join + NOT EXISTS + RAND)
		a, b := relIRI(), relIRI()
		qs = append(qs, fmt.Sprintf(`SELECT ?x ?y1 ?y2 WHERE {
  ?x <%s> ?y1 .
  ?x <%s> ?y2 .
  FILTER NOT EXISTS { ?x <%s> ?y2 }
} ORDER BY RAND() LIMIT %d`, a, b, a, 5+rng.Intn(30)))
		// generic joins, distinct, paging, filters
		qs = append(qs, fmt.Sprintf(
			"SELECT DISTINCT ?x WHERE { ?x <%s> ?y . ?y ?p ?z }", relIRI()))
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (STRLEN(STR(?y)) > %d) } LIMIT %d OFFSET %d",
			relIRI(), rng.Intn(20), 1+rng.Intn(10), rng.Intn(5)))
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x WHERE { ?x <%s> ?y . FILTER EXISTS { ?x <%s> ?z } } ORDER BY ?x", relIRI(), relIRI()))
		qs = append(qs, fmt.Sprintf("ASK { ?x <%s> ?y . ?x <%s> ?z }", relIRI(), relIRI()))
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY DESC(?y) ?x LIMIT 7", relIRI()))
	}
	return append(qs, oracleFilterQueries(k, rng)...)
}

// oracleFilterQueries widens the corpus with filter-heavy shapes —
// numeric comparisons, !=, [NOT] EXISTS nested inside boolean
// operators, REGEX (constant, invalid, non-string and per-row patterns),
// BOUND over never-bound variables, constant-folded subexpressions — and a LIMIT
// span covering 0, 1, a mid value, and beyond any result size, with
// and without ORDER BY. These are the shapes the compiled filter
// closures (cexpr.go) and the bounded top-k selection (exec.go) lower
// specially.
func oracleFilterQueries(k *kb.KB, rng *rand.Rand) []string {
	rels := k.Relations()
	relIRI := func() string { return k.Term(rels[rng.Intn(len(rels))]).Value }
	var qs []string

	// numeric comparisons over literal objects (gYear / integer /
	// plain literals all participate in numeric coercion)
	for i := 0; i < 3; i++ {
		lo := 1900 + rng.Intn(60)
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x ?v WHERE { ?x <%s> ?v . FILTER (?v >= %d && ?v < %d) }", relIRI(), lo, lo+25))
		qs = append(qs, fmt.Sprintf(
			"SELECT ?x ?v WHERE { ?x <%s> ?v . FILTER (ISLITERAL(?v) && !(?v < %d)) } ORDER BY RAND() LIMIT %d",
			relIRI(), lo, 3+rng.Intn(20)))
	}

	// != over a self-join, plus nested boolean operators
	a, b := relIRI(), relIRI()
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x ?y ?z WHERE { ?x <%s> ?y . ?x <%s> ?z . FILTER (?y != ?z) } LIMIT 9", a, a))
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (!(ISIRI(?y) && ?x = ?y) || STRLEN(STR(?y)) > 4) } ORDER BY ?x ?y LIMIT 11",
		b))

	// EXISTS / NOT EXISTS nested inside boolean operators
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x WHERE { ?x <%s> ?y . FILTER (EXISTS { ?x <%s> ?w } || STRLEN(STR(?y)) > %d) } ORDER BY ?x LIMIT 13",
		relIRI(), relIRI(), rng.Intn(10)))
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (NOT EXISTS { ?x <%s> ?y } && ISIRI(?y)) }",
		relIRI(), relIRI()))

	// BOUND over a never-bound variable; REGEX with constant pattern;
	// DATATYPE mixing
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x WHERE { ?x <%s> ?y . FILTER (!BOUND(?nope)) } ORDER BY ?x LIMIT 5", relIRI()))
	qs = append(qs, fmt.Sprintf(
		`SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER REGEX(STR(?y), "a.", "i") } LIMIT 17`, relIRI()))
	qs = append(qs, fmt.Sprintf(
		"SELECT ?x ?v WHERE { ?x <%s> ?v . FILTER (DATATYPE(?v) = <http://www.w3.org/2001/XMLSchema#gYear> || ISIRI(?v)) }",
		relIRI()))

	// constant subexpressions, folded at compile time by running their
	// own closures once
	qs = append(qs, fmt.Sprintf(
		`SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (STRLEN("abc") = 3 && (UCASE("a") = "A" || ?x = ?y) && STRLEN(STR(?y)) > %d) } ORDER BY ?y ?x LIMIT 9`,
		relIRI(), rng.Intn(20)))
	qs = append(qs, fmt.Sprintf(
		`SELECT ?x WHERE { ?x <%s> ?y . FILTER (!(LCASE("B") != "b") || CONTAINS(UCASE("abc"), "Z")) } ORDER BY DESC(?x) LIMIT 4`,
		relIRI()))

	// REGEX patterns that are invalid, not strings or not constant, and
	// constant flags that are an error
	for _, re := range []string{`"["`, `3`, `STR(?x)`, `"a", STRLEN(3)`, `STR(?x), "i"`} {
		qs = append(qs, fmt.Sprintf(
			`SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER REGEX(STR(?y), %s) } ORDER BY ?x ?y LIMIT 12`, relIRI(), re))
	}

	// LIMIT span: 0, 1, mid, beyond-result-size — streamed early exit
	// and the bounded ORDER BY selection must match the reference
	// engine's materialize-then-truncate on each of them.
	r := relIRI()
	for _, limit := range []int{0, 1, 6, 1 << 20} {
		qs = append(qs,
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT %d", r, limit),
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT %d", r, limit),
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (STRLEN(STR(?x)) > 2) } ORDER BY DESC(?x) ?y LIMIT %d OFFSET %d",
				r, limit, rng.Intn(4)))
	}
	return qs
}

// drainIter drains a RowIter into a Result, failing the test on error.
func drainIter(t *testing.T, it *RowIter, err error) *Result {
	t.Helper()
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer it.Close()
	res := &Result{Vars: it.Vars()}
	for it.Next() {
		res.Rows = append(res.Rows, it.Row())
	}
	if err := it.Err(); err != nil {
		t.Fatalf("stream iteration: %v", err)
	}
	return res
}

func rowsEqual(a, b *Result) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return nil
}

func rowMultiset(r *Result) map[string]int {
	m := map[string]int{}
	for _, row := range r.Rows {
		var sb strings.Builder
		for _, t := range row {
			sb.WriteString(t.String())
			sb.WriteByte(0)
		}
		m[sb.String()]++
	}
	return m
}

func multisetEqual(a, b *Result) error {
	ma, mb := rowMultiset(a), rowMultiset(b)
	if len(ma) != len(mb) {
		return fmt.Errorf("distinct row counts differ: %d vs %d", len(ma), len(mb))
	}
	for k, v := range ma {
		if mb[k] != v {
			return fmt.Errorf("row %q: count %d vs %d", k, v, mb[k])
		}
	}
	return nil
}

// TestOracleCompiledMatchesNaive compares the compiled engine — its
// drained Eval path AND its streamed Stream path — against the
// reference evaluator over randomized synth worlds, frozen and
// unfrozen. Drained and streamed execution must agree byte for byte on
// every query (they run the same enumeration); ordered queries must
// also match the reference engine byte for byte, unordered ones as row
// multisets. Early-closed streams must yield a prefix of the drained
// rows.
func TestOracleCompiledMatchesNaive(t *testing.T) {
	for _, worldSeed := range []int64{2016, 7, 99} {
		spec := synth.TinySpec()
		spec.Seed = worldSeed
		w := synth.Generate(spec)
		for _, freeze := range []bool{false, true} {
			for _, k := range []*kb.KB{w.Yago, w.Dbp} {
				if freeze {
					k.Freeze()
				}
				rng := rand.New(rand.NewSource(worldSeed * 13))
				naive := newNaiveEngine(k, worldSeed)
				compiled := NewEngineSeeded(k, worldSeed)
				for _, qtext := range oracleQueries(k, rng) {
					q, err := Parse(qtext)
					if err != nil {
						t.Fatalf("parse %q: %v", qtext, err)
					}
					want, err := naive.Eval(q)
					if err != nil {
						t.Fatalf("naive eval %q: %v", qtext, err)
					}
					got, err := compiled.Eval(q)
					if err != nil {
						t.Fatalf("compiled eval %q: %v", qtext, err)
					}
					if want.Ask != got.Ask {
						t.Fatalf("ASK differs for %q: %v vs %v", qtext, want.Ask, got.Ask)
					}
					if len(q.OrderBy) > 0 {
						if err := rowsEqual(want, got); err != nil {
							t.Fatalf("ordered results differ (freeze=%v) for\n%s\n%v", freeze, qtext, err)
						}
					} else if err := multisetEqual(want, got); err != nil {
						t.Fatalf("results differ (freeze=%v) for\n%s\n%v", freeze, qtext, err)
					}
					if q.Form != SelectForm {
						continue
					}
					it, err := compiled.Stream(q)
					streamed := drainIter(t, it, err)
					if err := rowsEqual(got, streamed); err != nil {
						t.Fatalf("streamed rows differ from drained (freeze=%v) for\n%s\n%v", freeze, qtext, err)
					}
					if n := len(got.Rows); n > 1 {
						j := 1 + int(rng.Int63())%n // early close mid-result
						it, err := compiled.Stream(q)
						if err != nil {
							t.Fatalf("stream %q: %v", qtext, err)
						}
						for i := 0; i < j; i++ {
							if !it.Next() {
								t.Fatalf("stream of %q ended at row %d, want %d", qtext, i, j)
							}
							for c := range it.Row() {
								if it.Row()[c] != got.Rows[i][c] {
									t.Fatalf("streamed prefix diverges at row %d col %d for %q", i, c, qtext)
								}
							}
						}
						it.Close()
						if it.Err() != nil {
							t.Fatalf("early close errored for %q: %v", qtext, it.Err())
						}
					}
				}
			}
		}
	}
}

// TestOracleMixedTypeOrderKeys pins the regression where ORDER BY keys
// mix comparable and incomparable values (STRLEN of a literal vs an
// IRI): the key comparator is then non-transitive, so bounded top-k
// selection is unsound and the engine must fall back to the reference
// stable sort. Naive, drained, and streamed execution must stay
// byte-identical for every LIMIT.
func TestOracleMixedTypeOrderKeys(t *testing.T) {
	k := kb.New("mixed")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s1"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("hello")))
	k.AddIRIs("http://x/s2", "http://x/p", "http://x/iri")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s3"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("abc")))
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s4"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("zz")))
	k.Freeze()
	naive := newNaiveEngine(k, 5)
	compiled := NewEngineSeeded(k, 5)
	for _, shape := range []string{
		"SELECT ?y WHERE { ?s <http://x/p> ?y } ORDER BY STRLEN(?y)%s",
		"SELECT ?y WHERE { ?s <http://x/p> ?y } ORDER BY DESC(STRLEN(?y))%s",
		"SELECT ?y WHERE { ?s <http://x/p> ?y } ORDER BY STRLEN(?y) ?y%s",
	} {
		for _, limit := range []string{"", " LIMIT 1", " LIMIT 2", " LIMIT 3 OFFSET 1"} {
			qtext := fmt.Sprintf(shape, limit)
			q := MustParse(qtext)
			want, err := naive.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := compiled.Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := rowsEqual(want, got); err != nil {
				t.Fatalf("drained differs from naive for %q: %v", qtext, err)
			}
			it, err := compiled.Stream(q)
			if err := rowsEqual(want, drainIter(t, it, err)); err != nil {
				t.Fatalf("streamed differs from naive for %q: %v", qtext, err)
			}
		}
	}
}

// TestOracleRandSelection walks the ORDER BY RAND() shapes around the
// typed selector's edges — LIMIT above the match count, LIMIT 1, a
// window that starts past row 0 or past the last row, DISTINCT before
// the draw — and two key lists that must stay on the generic path (a
// descending RAND key, a RAND key with a second key behind it). Naive,
// drained, streamed and borrowed execution must agree byte for byte.
func TestOracleRandSelection(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	k := w.Yago
	k.Freeze()
	naive := newNaiveEngine(k, 31)
	compiled := NewEngineSeeded(k, 31)

	// The relation with the most facts and the one with the fewest.
	rels := k.Relations()
	big, small := rels[0], rels[0]
	for _, r := range rels {
		if k.NumFactsOf(r) > k.NumFactsOf(big) {
			big = r
		}
		if k.NumFactsOf(r) < k.NumFactsOf(small) {
			small = r
		}
	}
	cases := []struct {
		tail  string
		typed bool
	}{
		{"ORDER BY RAND() LIMIT 1048576", true},
		{"ORDER BY RAND() LIMIT 1", true},
		{"ORDER BY RAND() LIMIT 5 OFFSET 3", true},
		{"ORDER BY RAND() LIMIT 5 OFFSET 1048576", true},
		{"ORDER BY DESC(RAND()) LIMIT 6", false},
		{"ORDER BY RAND() ?x LIMIT 6", false},
	}
	for _, r := range []kb.TermID{big, small} {
		for _, sel := range []string{"SELECT ?x ?y", "SELECT DISTINCT ?y"} {
			for _, c := range cases {
				if sel == "SELECT DISTINCT ?y" && c.tail == "ORDER BY RAND() ?x LIMIT 6" {
					continue // ?x is not projected
				}
				qtext := fmt.Sprintf("%s WHERE { ?x <%s> ?y } %s", sel, k.Term(r).Value, c.tail)
				q := MustParse(qtext)
				want, err := naive.Eval(q)
				if err != nil {
					t.Fatalf("naive eval %q: %v", qtext, err)
				}
				got, err := compiled.Eval(q)
				if err != nil {
					t.Fatalf("compiled eval %q: %v", qtext, err)
				}
				if err := rowsEqual(want, got); err != nil {
					t.Fatalf("drained differs from naive for %q: %v", qtext, err)
				}
				it, err := compiled.Stream(q)
				if err := rowsEqual(want, drainIter(t, it, err)); err != nil {
					t.Fatalf("streamed differs from naive for %q: %v", qtext, err)
				}

				tm, err := TemplateFromQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				p, err := compiled.Prepare(tm)
				if err != nil {
					t.Fatal(err)
				}
				if p.orderRand != c.typed {
					t.Fatalf("orderRand = %v for %q, want %v", p.orderRand, qtext, c.typed)
				}
				bit, err := p.IterBorrowed()
				if err != nil {
					t.Fatal(err)
				}
				borrowed := &Result{Vars: bit.Vars()}
				for bit.Next() {
					borrowed.Rows = append(borrowed.Rows, append([]rdf.Term(nil), bit.Row()...))
				}
				if err := bit.Err(); err != nil {
					t.Fatalf("borrowed iteration of %q: %v", qtext, err)
				}
				if err := rowsEqual(want, borrowed); err != nil {
					t.Fatalf("borrowed differs from naive for %q: %v", qtext, err)
				}
			}
		}
	}
}

// TestOraclePreparedMatchesText proves the prepared-template fast path
// produces byte-identical results — RAND() streams included — to the
// text path for the aligner's probe templates.
func TestOraclePreparedMatchesText(t *testing.T) {
	spec := synth.TinySpec()
	w := synth.Generate(spec)
	k := w.Yago
	k.Freeze()
	e := NewEngineSeeded(k, 42)

	rels := k.Relations()
	sample := MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	overlap := MustParseTemplate(`SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`, "a", "b", "n")

	pSample, err := e.Prepare(sample)
	if err != nil {
		t.Fatal(err)
	}
	pOverlap, err := e.Prepare(overlap)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < len(rels) && i < 12; i++ {
		r := k.Term(rels[i]).Value
		r2 := k.Term(rels[(i+1)%len(rels)]).Value

		text := fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT %d", r, 17)
		want, err := e.EvalString(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pSample.Exec(IRIArg(r), IntArg(17))
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsEqual(want, got); err != nil {
			t.Fatalf("prepared sample differs from text path for <%s>: %v", r, err)
		}
		it, err := pSample.Iter(IRIArg(r), IntArg(17))
		if err := rowsEqual(got, drainIter(t, it, err)); err != nil {
			t.Fatalf("prepared sample stream differs from Exec for <%s>: %v", r, err)
		}

		text = fmt.Sprintf(`SELECT ?x ?y1 ?y2 WHERE {
  ?x <%s> ?y1 .
  ?x <%s> ?y2 .
  FILTER NOT EXISTS { ?x <%s> ?y2 }
} ORDER BY RAND() LIMIT %d`, r, r2, r, 23)
		want, err = e.EvalString(text)
		if err != nil {
			t.Fatal(err)
		}
		got, err = pOverlap.Exec(IRIArg(r), IRIArg(r2), IntArg(23))
		if err != nil {
			t.Fatal(err)
		}
		if err := rowsEqual(want, got); err != nil {
			t.Fatalf("prepared overlap differs from text path for <%s>,<%s>: %v", r, r2, err)
		}
		it2, err := pOverlap.Iter(IRIArg(r), IRIArg(r2), IntArg(23))
		if err := rowsEqual(got, drainIter(t, it2, err)); err != nil {
			t.Fatalf("prepared overlap stream differs from Exec for <%s>,<%s>: %v", r, r2, err)
		}
	}
}

// TestOracleTemplateTextCanonical: a template's instantiated canonical
// text equals the parse → String round trip of the interpolated text,
// the invariant RAND() stream identity rests on.
func TestOracleTemplateTextCanonical(t *testing.T) {
	tm := MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	got, err := tm.Text(IRIArg("http://x/p"), IntArg(50))
	if err != nil {
		t.Fatal(err)
	}
	q := MustParse("SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 50")
	if want := q.String(); got != want {
		t.Fatalf("canonical texts differ:\n%q\n%q", got, want)
	}

	tm2 := MustParseTemplate("SELECT ?p WHERE { $s ?p $o }", "s", "o")
	got2, err := tm2.Text(IRIArg("http://x/a"), TermArg(rdf.NewIRI("http://x/b")))
	if err != nil {
		t.Fatal(err)
	}
	q2 := MustParse("SELECT ?p WHERE { <http://x/a> ?p <http://x/b> }")
	if want := q2.String(); got2 != want {
		t.Fatalf("canonical texts differ:\n%q\n%q", got2, want)
	}
}

// TestPlanCacheReuse: repeated queries of one shape compile once.
func TestPlanCacheReuse(t *testing.T) {
	k := kb.New("pc")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/c")
	k.Freeze()
	e := NewEngine(k)
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf("SELECT ?y WHERE { <http://x/%c> <http://x/p> ?y } LIMIT %d", 'a'+byte(i%3), i+1)
		if _, err := e.EvalString(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.CachedPlans(); got != 1 {
		t.Fatalf("CachedPlans = %d, want 1 (one shape)", got)
	}
}
