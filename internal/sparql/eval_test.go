package sparql

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// familyKB builds a small KB with people, ages and links.
func familyKB() *kb.KB {
	k := kb.New("family")
	add := func(s, p, o string) { k.AddIRIs("http://x/"+s, "http://x/"+p, "http://x/"+o) }
	lit := func(s, p string, o rdf.Term) {
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/"+s), rdf.NewIRI("http://x/"+p), o))
	}
	add("alice", "knows", "bob")
	add("alice", "knows", "carol")
	add("bob", "knows", "carol")
	add("carol", "knows", "alice")
	add("alice", "type", "Person")
	add("bob", "type", "Person")
	add("carol", "type", "Person")
	add("dave", "type", "Robot")
	lit("alice", "age", rdf.NewTypedLiteral("30", rdf.XSDInteger))
	lit("bob", "age", rdf.NewTypedLiteral("17", rdf.XSDInteger))
	lit("carol", "age", rdf.NewTypedLiteral("45", rdf.XSDInteger))
	lit("alice", "name", rdf.NewLiteral("Alice"))
	lit("bob", "name", rdf.NewLangLiteral("Bob", "en"))
	return k
}

func evalQ(t *testing.T, k *kb.KB, q string) *Result {
	t.Helper()
	res, err := NewEngine(k).EvalString(q)
	if err != nil {
		t.Fatalf("eval %q: %v", q, err)
	}
	return res
}

func TestEvalSinglePattern(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y }`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestEvalJoin(t *testing.T) {
	// friends of friends of alice
	res := evalQ(t, familyKB(), `SELECT ?z WHERE {
		<http://x/alice> <http://x/knows> ?y .
		?y <http://x/knows> ?z .
	}`)
	// alice knows bob,carol; bob knows carol; carol knows alice => z in {carol, alice}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	got := map[string]bool{}
	for _, r := range res.Rows {
		got[r[0].Value] = true
	}
	if !got["http://x/carol"] || !got["http://x/alice"] {
		t.Fatalf("got = %v", got)
	}
}

func TestEvalSharedVariableInPattern(t *testing.T) {
	k := kb.New("loop")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/a") // self loop
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	res := evalQ(t, k, `SELECT ?x WHERE { ?x <http://x/p> ?x }`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/a" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalFilterComparison(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/age> ?a . FILTER (?a >= 18)
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalFilterNotExists(t *testing.T) {
	// people alice knows who do not know her back
	res := evalQ(t, familyKB(), `SELECT ?y WHERE {
		<http://x/alice> <http://x/knows> ?y .
		FILTER NOT EXISTS { ?y <http://x/knows> <http://x/alice> }
	}`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalFilterExists(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?y WHERE {
		<http://x/alice> <http://x/knows> ?y .
		FILTER EXISTS { ?y <http://x/knows> <http://x/alice> }
	}`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/carol" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalAsk(t *testing.T) {
	res := evalQ(t, familyKB(), `ASK { <http://x/alice> <http://x/knows> <http://x/bob> }`)
	if !res.Ask {
		t.Fatal("ASK should be true")
	}
	res = evalQ(t, familyKB(), `ASK { <http://x/bob> <http://x/knows> <http://x/alice> }`)
	if res.Ask {
		t.Fatal("ASK should be false")
	}
}

func TestEvalDistinct(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT DISTINCT ?x WHERE { ?x <http://x/knows> ?y }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalLimitOffset(t *testing.T) {
	all := evalQ(t, familyKB(), `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y } ORDER BY ?x ?y`)
	lim := evalQ(t, familyKB(), `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y } ORDER BY ?x ?y LIMIT 2 OFFSET 1`)
	if len(lim.Rows) != 2 {
		t.Fatalf("rows = %d", len(lim.Rows))
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if lim.Rows[i][j] != all.Rows[i+1][j] {
				t.Fatalf("offset window wrong: %v vs %v", lim.Rows, all.Rows)
			}
		}
	}
	// offset beyond result set
	empty := evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/knows> ?y } OFFSET 100`)
	if len(empty.Rows) != 0 {
		t.Fatalf("rows = %d", len(empty.Rows))
	}
	// limit 0
	zero := evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/knows> ?y } LIMIT 0`)
	if len(zero.Rows) != 0 {
		t.Fatalf("rows = %d", len(zero.Rows))
	}
}

func TestEvalOrderByNumeric(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x ?a WHERE { ?x <http://x/age> ?a } ORDER BY DESC(?a)`)
	if res.Rows[0][0].Value != "http://x/carol" || res.Rows[2][0].Value != "http://x/bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalOrderByRandDeterministic(t *testing.T) {
	q := `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y } ORDER BY RAND()`
	e1 := NewEngineSeeded(familyKB(), 7)
	e2 := NewEngineSeeded(familyKB(), 7)
	r1, err := e1.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Rows {
		if r1.Rows[i][0] != r2.Rows[i][0] || r1.Rows[i][1] != r2.Rows[i][1] {
			t.Fatalf("same seed produced different shuffles:\n%v\n%v", r1.Rows, r2.Rows)
		}
	}
	// different engine seeds should (for this KB) give a different order
	e3 := NewEngineSeeded(familyKB(), 99)
	r3, err := e3.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Rows {
		if r1.Rows[i][0] != r3.Rows[i][0] || r1.Rows[i][1] != r3.Rows[i][1] {
			same = false
			break
		}
	}
	if same {
		t.Log("warning: different seeds produced identical order (possible but unlikely)")
	}
}

func TestEvalStringFunctions(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/name> ?n . FILTER STRSTARTS(STR(?n), "Al")
	}`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/name> ?n . FILTER (LANG(?n) = "en")
	}`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/name> ?n . FILTER (STRLEN(STR(?n)) = 5)
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalRegexCaseInsensitive(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/name> ?n . FILTER REGEX(?n, "ALICE", "i")
	}`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalIsFunctions(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?o WHERE {
		<http://x/alice> ?p ?o . FILTER ISLITERAL(?o)
	}`)
	if len(res.Rows) != 2 { // age + name
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?o WHERE {
		<http://x/alice> ?p ?o . FILTER ISIRI(?o)
	}`)
	if len(res.Rows) != 3 { // knows x2 + type
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalUnknownTermsYieldEmpty(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/ghost> ?y }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?p WHERE { <http://x/nobody> ?p ?y }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalVariablePredicate(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?p WHERE { <http://x/alice> ?p <http://x/bob> }`)
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/knows" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalFullScan(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	if len(res.Rows) != familyKB().Size() {
		t.Fatalf("rows = %d, want %d", len(res.Rows), familyKB().Size())
	}
}

func TestEvalObjectOnlyBound(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?s ?p WHERE { ?s ?p <http://x/carol> }`)
	if len(res.Rows) != 2 { // alice knows carol, bob knows carol
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalProjectionUnboundVarDropsRows(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?nope WHERE { ?x <http://x/knows> ?y }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestResultHelpers(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x ?a WHERE { ?x <http://x/age> ?a } ORDER BY ?a LIMIT 1`)
	b := res.Bindings(0)
	if b["x"].Value != "http://x/bob" {
		t.Fatalf("Bindings = %v", b)
	}
}

func TestEvalBoundFunction(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/age> ?a . FILTER BOUND(?a) }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/age> ?a . FILTER BOUND(?zzz) }`)
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalBooleanConnectives(t *testing.T) {
	res := evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/age> ?a . FILTER (?a < 20 || ?a > 40)
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = evalQ(t, familyKB(), `SELECT ?x WHERE {
		?x <http://x/age> ?a . FILTER (!(?a < 20))
	}`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// naiveBGP evaluates a BGP by brute force for the property test: all
// triples × all triples ... with consistency checks.
func naiveBGP(k *kb.KB, patterns []TriplePattern) map[string]int {
	triples := k.Triples()
	counts := map[string]int{}
	var rec func(i int, env map[string]rdf.Term)
	rec = func(i int, env map[string]rdf.Term) {
		if i == len(patterns) {
			key := ""
			// canonical: sorted var=val
			vars := make([]string, 0, len(env))
			for v := range env {
				vars = append(vars, v)
			}
			sortStrings(vars)
			for _, v := range vars {
				key += v + "=" + env[v].String() + ";"
			}
			counts[key]++
			return
		}
		tp := patterns[i]
		for _, tr := range triples {
			ok := true
			next := map[string]rdf.Term{}
			for k2, v := range env {
				next[k2] = v
			}
			check := func(pt PatternTerm, val rdf.Term) {
				if !ok {
					return
				}
				if pt.IsVar {
					if prev, bound := next[pt.Var]; bound {
						if prev != val {
							ok = false
						}
					} else {
						next[pt.Var] = val
					}
				} else if pt.Term != val {
					ok = false
				}
			}
			check(tp.S, tr.S)
			check(tp.P, tr.P)
			check(tp.O, tr.O)
			if ok {
				rec(i+1, next)
			}
		}
	}
	rec(0, map[string]rdf.Term{})
	return counts
}

// Property: the engine's BGP join agrees with the naive evaluator on
// random KBs and random 2-pattern queries.
func TestQuickBGPAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := kb.New("q")
		for i := 0; i < 30; i++ {
			k.AddIRIs(
				fmt.Sprintf("http://x/e%d", rng.Intn(6)),
				fmt.Sprintf("http://x/p%d", rng.Intn(3)),
				fmt.Sprintf("http://x/e%d", rng.Intn(6)))
		}
		mk := func() PatternTerm {
			switch rng.Intn(3) {
			case 0:
				return Variable(fmt.Sprintf("v%d", rng.Intn(3)))
			case 1:
				return Concrete(rdf.NewIRI(fmt.Sprintf("http://x/e%d", rng.Intn(6))))
			default:
				return Variable(fmt.Sprintf("w%d", rng.Intn(2)))
			}
		}
		mkP := func() PatternTerm {
			if rng.Intn(2) == 0 {
				return Variable(fmt.Sprintf("v%d", rng.Intn(3)))
			}
			return Concrete(rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(3))))
		}
		patterns := []TriplePattern{
			{S: mk(), P: mkP(), O: mk()},
			{S: mk(), P: mkP(), O: mk()},
		}
		g := &GroupPattern{Triples: patterns}
		q := &Query{Form: SelectForm, Vars: g.AllVars(), Where: g, Limit: -1}
		res, err := NewEngine(k).Eval(q)
		if err != nil {
			return false
		}
		gotCounts := map[string]int{}
		for i := range res.Rows {
			key := ""
			for j, v := range res.Vars {
				key += v + "=" + res.Rows[i][j].String() + ";"
			}
			gotCounts[key]++
		}
		wantCounts := naiveBGP(k, patterns)
		if len(gotCounts) != len(wantCounts) {
			return false
		}
		for k2, v := range wantCounts {
			if gotCounts[k2] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineConcurrentEval(t *testing.T) {
	k := familyKB()
	e := NewEngine(k)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				_, err := e.EvalString(`SELECT ?x ?y WHERE { ?x <http://x/knows> ?y }`)
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// The property the concurrent alignment pipeline rests on: a query's
// RAND() stream depends only on the engine seed and the query text,
// never on which other queries ran before or concurrently.
func TestEvalRandOrderIndependent(t *testing.T) {
	qA := `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y } ORDER BY RAND()`
	qB := `SELECT ?x WHERE { ?x <http://x/knows> ?y } ORDER BY RAND() LIMIT 2`

	e1 := NewEngineSeeded(familyKB(), 7)
	a1, err := e1.EvalString(qA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.EvalString(qB); err != nil {
		t.Fatal(err)
	}

	// same seed, other interleaving: qB first, qA twice
	e2 := NewEngineSeeded(familyKB(), 7)
	if _, err := e2.EvalString(qB); err != nil {
		t.Fatal(err)
	}
	a2, err := e2.EvalString(qA)
	if err != nil {
		t.Fatal(err)
	}
	a3, err := e2.EvalString(qA)
	if err != nil {
		t.Fatal(err)
	}

	for _, other := range [][][]rdf.Term{a2.Rows, a3.Rows} {
		if len(a1.Rows) != len(other) {
			t.Fatalf("row counts differ: %d vs %d", len(a1.Rows), len(other))
		}
		for i := range a1.Rows {
			if a1.Rows[i][0] != other[i][0] || a1.Rows[i][1] != other[i][1] {
				t.Fatalf("interleaving changed a RAND() order:\n%v\n%v", a1.Rows, other)
			}
		}
	}
}

// Concurrent RAND() queries must reproduce the isolated results — the
// engine derives a private PRNG per Eval, shared state would race and
// scramble orders.
func TestEvalRandConcurrentMatchesIsolated(t *testing.T) {
	q := `SELECT ?x ?y WHERE { ?x <http://x/knows> ?y } ORDER BY RAND()`
	want, err := NewEngineSeeded(familyKB(), 7).EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineSeeded(familyKB(), 7)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 20; j++ {
				got, err := e.EvalString(q)
				if err != nil {
					done <- err
					return
				}
				for r := range want.Rows {
					if got.Rows[r][0] != want.Rows[r][0] || got.Rows[r][1] != want.Rows[r][1] {
						done <- fmt.Errorf("concurrent RAND() order diverged at row %d", r)
						return
					}
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineAnswersIndependentOfFreeze: an engine answers a query with
// the same rows in the same order whether or not its KB was frozen
// first. The overlap KB makes the planner's join order hinge on p's
// distinct-object count: 100 p-facts share one object, and 50 of q's
// 80 subjects are p-subjects.
func TestEngineAnswersIndependentOfFreeze(t *testing.T) {
	overlapKB := func() *kb.KB {
		k := kb.New("overlap")
		for i := 0; i < 100; i++ {
			k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o1")
		}
		for i := 0; i < 80; i++ {
			s := fmt.Sprintf("http://x/s%d", 2*i)
			if i >= 50 {
				s = fmt.Sprintf("http://x/t%d", i)
			}
			k.AddIRIs(s, "http://x/q", fmt.Sprintf("http://x/y%d", i%7))
		}
		return k
	}
	queries := []string{
		`SELECT ?x ?y WHERE { ?x <http://x/q> ?y . ?x <http://x/p> <http://x/o1> }`,
		`SELECT ?x ?y WHERE { ?x <http://x/q> ?y . ?x <http://x/p> <http://x/o1> } LIMIT 5`,
		`SELECT ?x ?y WHERE { ?x <http://x/q> ?y . ?x <http://x/p> ?z } ORDER BY RAND() LIMIT 10`,
		`SELECT DISTINCT ?y WHERE { ?x <http://x/q> ?y . ?x <http://x/p> ?o }`,
		`SELECT ?x ?y WHERE { ?x <http://x/q> ?y } ORDER BY ?y`,
		`SELECT ?x ?o WHERE { ?x ?r ?o } ORDER BY RAND() LIMIT 20`,
	}
	for _, q := range queries {
		frozen := overlapKB()
		frozen.Freeze()
		want, err := NewEngineSeeded(frozen, 7).EvalString(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngineSeeded(overlapKB(), 7).EvalString(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s\nunfrozen KB answers %v\nfrozen KB answers   %v", q, got.Rows, want.Rows)
		}
	}
}

// TestNumericLexicalXSDForms: a literal reads as a number only when its
// lexical form is an XSD numeral; strconv's own spellings (inf,
// Infinity, NaN, hex floats) stay strings, and INF, +INF, -INF and NaN
// are numbers on xsd:double alone.
func TestNumericLexicalXSDForms(t *testing.T) {
	for _, c := range []struct {
		lex, dt string
		want    bool
	}{
		{"42", "", true},
		{"-3.5", "", true},
		{"+.5e-3", "", true},
		{"5.", rdf.XSDDecimal, true},
		{"1E3", rdf.XSDDouble, true},
		{"1990", rdf.XSDGYear, true},
		{"Infinity", "", false},
		{"inf", "", false},
		{"+Inf", "", false},
		{"NaN", "", false},
		{"INF", "", false},
		{"0x1p-2", "", false},
		{"0x10", rdf.XSDInteger, false},
		{"1e", "", false},
		{".", "", false},
		{"", "", false},
		{"INF", rdf.XSDDouble, true},
		{"+INF", rdf.XSDDouble, true},
		{"-INF", rdf.XSDDouble, true},
		{"NaN", rdf.XSDDouble, true},
		{"inf", rdf.XSDDouble, false},
		{"Infinity", rdf.XSDDouble, false},
		{"INF", rdf.XSDDecimal, false},
		{"12", rdf.XSDString, false},
	} {
		term := rdf.NewTypedLiteral(c.lex, c.dt)
		if _, got := numericLexical(term); got != c.want {
			t.Errorf("numericLexical(%s) = %v, want %v", term, got, c.want)
		}
	}

	k := kb.New("numerals")
	for _, lex := range []string{"+Inf", "Infinity", "inf", "NaN"} {
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral(lex)))
	}
	for q, want := range map[string]int{
		`SELECT ?v WHERE { ?s <http://x/p> ?v . FILTER (?v = "Infinity") }`: 1,
		`SELECT ?v WHERE { ?s <http://x/p> ?v . FILTER (?v = ?v) }`:         4,
	} {
		if got := evalQ(t, k, q).Rows; len(got) != want {
			t.Errorf("%s: rows %v, want %d", q, got, want)
		}
	}
}

// TestDatatypeOfLangLiteral: DATATYPE of a language-tagged literal is
// rdf:langString (SPARQL 1.1), of a plain one xsd:string.
func TestDatatypeOfLangLiteral(t *testing.T) {
	for dt, want := range map[string]string{rdf.RDFLangString: "bob", rdf.XSDString: "alice"} {
		q := fmt.Sprintf(`SELECT ?x WHERE { ?x <http://x/name> ?v . FILTER (DATATYPE(?v) = <%s>) }`, dt)
		res := evalQ(t, familyKB(), q)
		if len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/"+want {
			t.Errorf("DATATYPE = <%s>: rows %v, want %s", dt, res.Rows, want)
		}
	}
	res := evalQ(t, familyKB(), `SELECT ?x WHERE { ?x <http://x/name> ?v . FILTER (STR(DATATYPE(?v)) = "") }`)
	if len(res.Rows) != 0 {
		t.Errorf(`STR(DATATYPE(?v)) = "" holds for %v`, res.Rows)
	}
}
