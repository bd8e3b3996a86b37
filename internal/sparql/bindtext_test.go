package sparql

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// bindtext_test.go holds BindText's two routes to one answer: a
// canonical text of a shape the engine holds is read off its skeleton
// (skeleton.go), any other text is parsed, and both give what a fresh
// engine's parse gives — rows, RAND() streams, arguments and errors.

// probeShapes are the aligner's five probe templates, as
// internal/sampling's probe table declares them: what a server is sent
// is their canonical texts.
var probeShapes = []struct {
	name, text string
	params     []string
}{
	{"sample", "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", []string{"r", "n"}},
	{"objects", "SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}},
	{"overlap", `SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`, []string{"a", "b", "n"}},
	{"between", "SELECT ?p WHERE { $x ?p $y }", []string{"x", "y"}},
	{"literals", "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }", []string{"x"}},
}

// bindTextLiterals are object arguments a text carries: plain, language-
// tagged and typed literals, the escapes a canonical text writes, and
// non-ASCII.
var bindTextLiterals = []rdf.Term{
	rdf.NewLiteral("lit"),
	rdf.NewLiteral(""),
	rdf.NewLangLiteral("Abc", "en"),
	rdf.NewLangLiteral("Zürich", "de-CH"),
	rdf.NewTypedLiteral("5", rdf.XSDInteger),
	rdf.NewTypedLiteral("1990", rdf.XSDGYear),
	rdf.NewLiteral(`say "hi"`),
	rdf.NewLiteral(`back\slash`),
	rdf.NewLiteral("two\nlines\tand\r"),
	rdf.NewLiteral("東京 — ✓"),
}

// bindTextKB relates 30 subjects under three predicates to IRIs and to
// every literal of bindTextLiterals.
func bindTextKB() *kb.KB {
	k := kb.New("bindtext")
	x := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	for i := 0; i < 30; i++ {
		s := x(fmt.Sprintf("s%d", i))
		k.Add(rdf.NewTriple(s, x("p"), x(fmt.Sprintf("o%d", i%7))))
		k.Add(rdf.NewTriple(s, x("q"), x(fmt.Sprintf("o%d", i%5))))
		k.Add(rdf.NewTriple(s, x("é"), bindTextLiterals[i%len(bindTextLiterals)]))
	}
	k.Freeze()
	return k
}

// bindTextArgs generates argument tuples for a probe shape: IRIs known
// and unknown, literals where an object stands, LIMIT 0 and a large one.
func bindTextArgs(tm *Template) [][]Arg {
	iris := []string{"http://x/s3", "http://x/p", "http://x/q", "http://x/é", "http://x/o2", "http://x/none", ""}
	limits := []int{0, 1, 7, 1 << 40}
	var out [][]Arg
	for i := 0; i < 24; i++ {
		args := make([]Arg, len(tm.params))
		for j := range args {
			switch {
			case tm.isInt[j]:
				args[j] = IntArg(limits[(i+j)%len(limits)])
			case tm.params[j] == "y" && i%2 == 1:
				args[j] = TermArg(bindTextLiterals[(i/2)%len(bindTextLiterals)])
			default:
				args[j] = IRIArg(iris[(i*3+j)%len(iris)])
			}
		}
		out = append(out, args)
	}
	return out
}

// parsePath is what a fresh engine makes of a text: Parse, then the
// plan of the parsed query's shape.
func parsePath(k *kb.KB, seed int64, text string) (*Prepared, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return NewEngineSeeded(k, seed).bind(q)
}

// sameAnswer runs a and b and fails unless their arguments, RAND()
// fingerprints and results are identical.
func sameAnswer(t *testing.T, text string, a, b *Prepared) {
	t.Helper()
	if !reflect.DeepEqual(a.bound, b.bound) {
		t.Fatalf("%q: arguments\n%v\nparse path\n%v", text, a.bound, b.bound)
	}
	if a.usesRand != b.usesRand || a.fp != b.fp {
		t.Fatalf("%q: RAND() fingerprint %#x (draws %v), parse path %#x (draws %v)", text, a.fp, a.usesRand, b.fp, b.usesRand)
	}
	ra, erra := a.exec(a.bound)
	rb, errb := b.exec(b.bound)
	if fmt.Sprint(erra) != fmt.Sprint(errb) || !reflect.DeepEqual(ra, rb) {
		t.Fatalf("%q: answered %v, %v; parse path %v, %v", text, ra, erra, rb, errb)
	}
}

// TestBindTextHitsProbeTexts: once the engine has parsed one text of
// each probe shape, every canonical text of those shapes is bound off
// its skeleton, and answers as a fresh engine's parse of it does.
func TestBindTextHitsProbeTexts(t *testing.T) {
	k := bindTextKB()
	e := NewEngineSeeded(k, 5)
	hits := 0
	for _, ps := range probeShapes {
		tm := MustParseTemplate(ps.text, ps.params...)
		for i, args := range bindTextArgs(tm) {
			text, err := tm.Text(args...)
			if err != nil {
				t.Fatal(err)
			}
			p := e.bindCanonical(text)
			if i == 0 {
				if p != nil {
					t.Fatalf("%s: %q bound before the engine met its shape", ps.name, text)
				}
				if p, err = e.BindText(text); err != nil {
					t.Fatal(err)
				}
			} else if p == nil {
				t.Fatalf("%s: canonical text %q missed", ps.name, text)
			} else {
				hits++
			}
			want, err := parsePath(k, 5, text)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, text, p, want)
		}
	}
	t.Logf("%d hits", hits)
}

// TestBindTextSpellings: each LIMIT/OFFSET spelling of a shape is learned
// the first time a parse meets it, and canonical texts of it hit from
// then on; an OFFSET 0 or a LIMIT with a leading zero is not canonical.
func TestBindTextSpellings(t *testing.T) {
	k := bindTextKB()
	e := NewEngineSeeded(k, 5)
	texts := func(limit, offset string) []string {
		var out []string
		for _, s := range []string{"s1", "s2", "s3"} {
			text := "SELECT ?y WHERE {\n  <http://x/" + s + "> <http://x/p> ?y .\n}\nORDER BY ASC(?y)"
			if limit != "" {
				text += "\nLIMIT " + limit
			}
			if offset != "" {
				text += "\nOFFSET " + offset
			}
			out = append(out, text)
		}
		return out
	}
	for _, c := range []struct{ limit, offset string }{{"", ""}, {"2", ""}, {"", "1"}, {"0", "3"}} {
		for i, text := range texts(c.limit, c.offset) {
			if got := e.bindCanonical(text) != nil; got != (i > 0) {
				t.Fatalf("%q: hit %v, want %v", text, got, i > 0)
			}
			p, err := e.BindText(text)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := parsePath(k, 5, text)
			sameAnswer(t, text, p, want)
		}
	}
	if n := e.CachedPlans(); n != 1 {
		t.Fatalf("%d plans for one shape", n)
	}
	for _, text := range []string{texts("", "0")[0], texts("02", "")[0], texts("2", "01")[0]} {
		if e.bindCanonical(text) != nil {
			t.Fatalf("%q is not canonical, and hit", text)
		}
		p, err := e.BindText(text)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := parsePath(k, 5, text)
		sameAnswer(t, text, p, want)
	}
}

// TestBindTextNonCanonicalMisses: a text of a learned shape spelled any
// other way than its canonical text — and a near miss of one — takes the
// parse path, and answers or fails exactly as a fresh engine's parse.
func TestBindTextNonCanonicalMisses(t *testing.T) {
	k := bindTextKB()
	e := NewEngineSeeded(k, 5)
	for _, ps := range probeShapes {
		tm := MustParseTemplate(ps.text, ps.params...)
		text, _ := tm.Text(bindTextArgs(tm)[1]...)
		if _, err := e.BindText(text); err != nil {
			t.Fatal(err)
		}
	}
	canon := "SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\" .\n}"
	if e.bindCanonical(canon) == nil {
		t.Fatalf("%q missed", canon)
	}
	for _, text := range []string{
		// spellings Parse reads as canonical texts of learned shapes
		"SELECT ?p WHERE { <http://x/s3> ?p \"lit\" }",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\" .\n}\n",
		"SELECT ?p WHERE {\n  <http://x/s3>  ?p \"lit\" .\n}",
		"PREFIX x: <http://x/> SELECT ?p WHERE {\n  x:s3 ?p \"lit\" .\n}",
		"SELECT ?p WHERE {\n  x:s3 ?p \"lit\" .\n}",
		"select ?p where {\n  <http://x/s3> ?p \"lit\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\"^^xsd:string .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\"^^<http://www.w3.org/2001/XMLSchema#string> .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\" @en .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p 5 .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"a\tb\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p <http://x/o1> . # comment\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"\xff\" .\n}",
		"SELECT ?y WHERE {\n  ?x a ?y .\n}",
		"SELECT ?y WHERE {\n  <http://x/s3> a ?y .\n}",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT 007",
		// near misses: a trailing byte, a '>' or a quote inside a gap, a
		// truncated or unterminated literal, a literal where only an IRI
		// stands, and texts that fail to parse
		canon + " ",
		canon + ".",
		"SELECT ?p WHERE {\n  <http://x/s3>> ?p \"lit\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"li\"t\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit",
		"SELECT ?p WHERE {\n  \"lit\" ?p \"lit\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3 > ?p \"lit\" .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\"@ .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\"^^ .\n}",
		"SELECT ?p WHERE {\n  <http://x/s3> ?p \"lit\\q\" .\n}",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT -1",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT 99999999999999999999",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT 2.5",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT $n",
		"SELECT ?x ?y WHERE {\n  ?x <http://x/p> ?y .\n}\nORDER BY ASC(RAND())\nLIMIT",
	} {
		if e.bindCanonical(text) != nil {
			t.Fatalf("%q hit", text)
		}
		got, gerr := e.BindText(text)
		want, werr := parsePath(k, 5, text)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%q: error %v, parse path %v", text, gerr, werr)
		}
		if gerr == nil {
			sameAnswer(t, text, got, want)
		}
	}
}

// TestBindTextEvictsSkeletons: concurrent texts over more shapes than the
// plan cache holds evict skeletons while other goroutines match them;
// every answer is still the parse path's, and the text index holds the
// skeletons of cached shapes only.
func TestBindTextEvictsSkeletons(t *testing.T) {
	k := bindTextKB()
	const shapes = maxCachedPlans + 64
	text := func(shape, i int) string {
		// the variable name makes the shape, the subject the argument
		return fmt.Sprintf("SELECT ?v%d WHERE {\n  <http://x/s%d> <http://x/p> ?v%d .\n}\nORDER BY ASC(RAND())\nLIMIT %d",
			shape, i%30, shape, 1+i%3)
	}
	want := make(map[string]*Result)
	for shape := 0; shape < shapes; shape++ {
		for i := 0; i < 4; i++ {
			p, err := parsePath(k, 9, text(shape, i))
			if err != nil {
				t.Fatal(err)
			}
			if want[text(shape, i)], err = p.exec(p.bound); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := NewEngineSeeded(k, 9)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3*shapes; n++ {
				shape := (n*7 + g*61) % shapes
				if g%2 == 1 {
					shape = n % 8 // a hot set, read while the rest evicts
				}
				tx := text(shape, (n+g)%4)
				p, err := e.BindText(tx)
				if err == nil {
					var res *Result
					if res, err = p.exec(p.bound); err == nil && !reflect.DeepEqual(res, want[tx]) {
						err = fmt.Errorf("%q answered %v, want %v", tx, res, want[tx])
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	indexed := 0
	for key, skels := range e.texts {
		for _, s := range skels {
			indexed++
			ent := s.el.Value.(*planEntry)
			if e.plans[ent.key] != s.el || ent.skels[1] != s || s.key != key {
				t.Fatalf("the index holds a skeleton of an evicted shape, %q", ent.key)
			}
		}
	}
	if indexed == 0 || indexed > maxCachedPlans {
		t.Fatalf("%d skeletons indexed for %d cached plans", indexed, len(e.plans))
	}
}

// FuzzBindText: for any text Parse accepts, BindText answers like a
// fresh engine's parse path twice over — the first time a miss, which
// teaches the engine the text's shape, the second a hit when the text is
// canonical. Of a text that does not parse, BindText returns Parse's
// error.
func FuzzBindText(f *testing.F) {
	for _, ps := range probeShapes {
		tm := MustParseTemplate(ps.text, ps.params...)
		for _, args := range bindTextArgs(tm)[:3] {
			text, _ := tm.Text(args...)
			f.Add(text)
		}
	}
	for _, s := range []string{
		"SELECT ?y WHERE {\n  <http://x/s1> <http://x/p> ?y .\n}\nORDER BY ASC(?y)\nLIMIT 2\nOFFSET 1",
		"ASK {\n  <http://x/s1> <http://x/p> <http://x/o1> .\n}",
		"SELECT ?x WHERE {\n  ?x <http://x/é> \"Zürich\"@de-CH .\n  FILTER EXISTS {\n    ?x <http://x/p> <http://x/o1> .\n  }\n}",
		"SELECT ?x WHERE {\n  ?x <http://x/p> ?y .\n  FILTER (!(EXISTS { ?x <http://x/q> <http://x/o2> . }))\n}",
		"SELECT ?x WHERE {\n  ?x <http://x/é> \"say \\\"hi\\\"\" .\n  FILTER (?x != <http://x/s1>)\n}",
		"SELECT ?p WHERE { <http://x/s3> ?p \"lit\" }",
	} {
		f.Add(s)
	}
	k := bindTextKB()
	f.Fuzz(func(t *testing.T, in string) {
		q, perr := Parse(in)
		e := NewEngineSeeded(k, 3)
		if perr != nil {
			if _, err := e.BindText(in); fmt.Sprint(err) != fmt.Sprint(perr) {
				t.Fatalf("error %v, Parse's %v\ninput: %q", err, perr, in)
			}
			return
		}
		if q.Where == nil || countPatterns(q.Where) > 4 {
			return // a cross join too large to enumerate per input
		}
		want, werr := parsePath(k, 3, in)
		for pass := 0; pass < 2; pass++ {
			got, gerr := e.BindText(in)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("pass %d: error %v, parse path %v\ninput: %q", pass, gerr, werr, in)
			}
			if gerr == nil {
				sameAnswer(t, in, got, want)
			}
		}
		// A canonical text with a '<' or '"' has a skeleton key.
		if werr == nil && q.String() == in && q.LimitVar == "" && strings.ContainsAny(in, `<"`) && !strings.ContainsRune(in, 0) {
			if e.bindCanonical(in) == nil {
				t.Fatalf("a canonical text the engine has parsed missed\ninput: %q", in)
			}
		}
	})
}

// TestAllocCeilingTextRoundTrip pins both ends of a probe text: a
// template renders it in one allocation, the string, and an engine that
// holds its shape binds it in two, the handle and its arguments.
func TestAllocCeilingTextRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	e := NewEngineSeeded(bindTextKB(), 5)
	for _, ps := range probeShapes {
		tm := MustParseTemplate(ps.text, ps.params...)
		args := bindTextArgs(tm)[3]
		text, _ := tm.Text(args...)
		if _, err := e.BindText(text); err != nil {
			t.Fatal(err)
		}
		render := testing.AllocsPerRun(50, func() { _, _ = tm.Text(args...) })
		bind := testing.AllocsPerRun(50, func() { _, _ = e.BindText(text) })
		if render != 1 || bind != 2 {
			t.Errorf("%s: Text %.0f allocations, BindText %.0f; want 1 and 2", ps.name, render, bind)
		}
	}
}
