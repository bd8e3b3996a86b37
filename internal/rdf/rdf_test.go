package rdf

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsLiteral() || iri.IsBlank() {
		t.Fatalf("IRI predicates wrong: %+v", iri)
	}
	lit := NewLiteral("hello")
	if !lit.IsLiteral() {
		t.Fatalf("literal predicate wrong: %+v", lit)
	}
	lang := NewLangLiteral("bonjour", "fr")
	if lang.Lang != "fr" || lang.Datatype != "" {
		t.Fatalf("lang literal wrong: %+v", lang)
	}
	typed := NewTypedLiteral("42", XSDInteger)
	if typed.Datatype != XSDInteger {
		t.Fatalf("typed literal wrong: %+v", typed)
	}
	b := NewBlank("b0")
	if !b.IsBlank() {
		t.Fatalf("blank predicate wrong: %+v", b)
	}
	if (Term{}).IsZero() != true {
		t.Fatal("zero term not reported as zero")
	}
	if iri.IsZero() {
		t.Fatal("non-zero term reported as zero")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("hi", "en"), `"hi"@en`},
		{NewTypedLiteral("3", XSDInteger), `"3"^^<` + XSDInteger + `>`},
		// xsd:string datatype is canonicalized away in output.
		{NewTypedLiteral("s", XSDString), `"s"`},
		{NewBlank("n1"), "_:n1"},
		{NewLiteral("a\"b\\c\nd\te"), `"a\"b\\c\nd\te"`},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	a := NewIRI("http://x/a")
	b := NewIRI("http://x/b")
	l := NewLiteral("a")
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Fatal("IRI ordering wrong")
	}
	if a.Compare(l) >= 0 {
		t.Fatal("IRIs must order before literals")
	}
	if NewLiteral("x").Compare(NewLangLiteral("x", "en")) == 0 {
		t.Fatal("lang tag must participate in comparison")
	}
}

func TestTripleValidAndString(t *testing.T) {
	tr := NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("o"))
	if !tr.Valid() {
		t.Fatal("valid triple reported invalid")
	}
	if got, want := tr.String(), `<http://x/s> <http://x/p> "o" .`; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	bad := []Triple{
		{}, // all zero
		{S: NewLiteral("s"), P: NewIRI("http://p"), O: NewIRI("http://o")}, // literal subject
		{S: NewIRI("http://s"), P: NewLiteral("p"), O: NewIRI("http://o")}, // literal predicate
		{S: NewIRI("http://s"), P: NewBlank("b"), O: NewIRI("http://o")},   // blank predicate
	}
	for i, b := range bad {
		if b.Valid() {
			t.Errorf("case %d: invalid triple reported valid: %v", i, b)
		}
	}
}

func TestParseTripleLine(t *testing.T) {
	cases := []struct {
		in   string
		want Triple
	}{
		{
			`<http://x/s> <http://x/p> <http://x/o> .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewIRI("http://x/o")),
		},
		{
			`<http://x/s> <http://x/p> "lit" .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("lit")),
		},
		{
			`<http://x/s> <http://x/p> "lit"@en .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLangLiteral("lit", "en")),
		},
		{
			`<http://x/s> <http://x/p> "12"^^<` + XSDInteger + `> .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewTypedLiteral("12", XSDInteger)),
		},
		{
			`_:b0 <http://x/p> _:b1 .`,
			NewTriple(NewBlank("b0"), NewIRI("http://x/p"), NewBlank("b1")),
		},
		{
			// no trailing dot is tolerated
			`<http://x/s> <http://x/p> "x"`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("x")),
		},
		{
			`<http://x/s> <http://x/p> "a\"b\\c\nd" .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("a\"b\\c\nd")),
		},
		{
			`<http://x/s> <http://x/p> "café" .`,
			NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("café")),
		},
	}
	for _, c := range cases {
		got, err := ParseTripleLine(c.in)
		if err != nil {
			t.Errorf("ParseTripleLine(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTripleLine(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseTripleLineErrors(t *testing.T) {
	bad := []string{
		``,
		`<http://x/s>`,
		`<http://x/s> <http://x/p>`,
		`<http://x/s> <http://x/p> <http://x/o> . extra`,
		`<http://x/s <http://x/p> <http://x/o> .`,
		`"s" <http://x/p> <http://x/o> .`,
		`<http://x/s> <http://x/p> "unterminated .`,
		`<http://x/s> <http://x/p> "bad\q" .`,
		`<http://x/s> <http://x/p> "x"^^bad .`,
		`<http://x/s> <http://x/p> "x"@ .`,
		`<http://x/s> <http://x/p> "x\u12" .`,
	}
	for _, in := range bad {
		if _, err := ParseTripleLine(in); err == nil {
			t.Errorf("ParseTripleLine(%q): want error, got none", in)
		}
	}
}

func TestReadNTriples(t *testing.T) {
	in := `# comment
<http://x/a> <http://x/p> <http://x/b> .

<http://x/b> <http://x/q> "v"@en .
`
	ts, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d triples, want 2", len(ts))
	}
	if ts[1].O != NewLangLiteral("v", "en") {
		t.Fatalf("second triple object = %v", ts[1].O)
	}
}

func TestReadNTriplesReportsLine(t *testing.T) {
	in := "<http://x/a> <http://x/p> <http://x/b> .\nbroken line\n"
	_, err := ReadNTriples(strings.NewReader(in))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want *ParseError, got %T (%v)", err, err)
	}
	if pe.Line != 2 {
		t.Fatalf("error line = %d, want 2", pe.Line)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ts := []Triple{
		NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("a\nb\t\"c\"")),
		NewTriple(NewBlank("z"), NewIRI("http://x/p"), NewTypedLiteral("1999", XSDGYear)),
		NewTriple(NewIRI("http://x/s"), NewIRI("http://x/q"), NewLangLiteral("être", "fr")),
	}
	var sb strings.Builder
	if err := WriteNTriples(&sb, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNTriples(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts) {
		t.Fatalf("round trip length %d != %d", len(back), len(ts))
	}
	for i := range ts {
		if back[i] != ts[i] {
			t.Errorf("round trip[%d] = %v, want %v", i, back[i], ts[i])
		}
	}
}

// Property: for literals built from printable strings, String() followed by
// ParseTerm is the identity.
func TestQuickLiteralRoundTrip(t *testing.T) {
	f := func(lex string, langSel uint8) bool {
		var term Term
		switch langSel % 3 {
		case 0:
			term = NewLiteral(lex)
		case 1:
			term = NewLangLiteral(lex, "en")
		default:
			term = NewTypedLiteral(lex, XSDString)
		}
		got, err := ParseTerm(term.String())
		if err != nil {
			return false
		}
		// xsd:string typed literals canonicalize to plain literals.
		want := term
		if want.Datatype == XSDString {
			want.Datatype = ""
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: IRIs without '>' round-trip.
func TestQuickIRIRoundTrip(t *testing.T) {
	f := func(suffix string) bool {
		clean := strings.Map(func(r rune) rune {
			if r == '>' || r == ' ' || r == '\t' || r == '\n' || r == '\r' {
				return -1
			}
			return r
		}, suffix)
		iri := NewIRI("http://example.org/" + clean)
		got, err := ParseTerm(iri.String())
		return err == nil && got == iri
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixMapExpandCompact(t *testing.T) {
	pm := StandardPrefixes()
	iri, err := pm.Expand("yago:wasBornIn")
	if err != nil {
		t.Fatal(err)
	}
	if iri != "http://yago-knowledge.org/resource/wasBornIn" {
		t.Fatalf("Expand = %q", iri)
	}
	if got := pm.Compact(iri); got != "yago:wasBornIn" {
		t.Fatalf("Compact = %q", got)
	}
	// absolute IRIs pass through Expand
	if got, err := pm.Expand("http://x/abs"); err != nil || got != "http://x/abs" {
		t.Fatalf("Expand(abs) = %q, %v", got, err)
	}
	// unknown prefixes error
	if _, err := pm.Expand("nope:x"); err == nil {
		t.Fatal("want error for unknown prefix")
	}
	if _, err := pm.Expand("noColon"); err == nil {
		t.Fatal("want error for non-qname")
	}
	// unknown IRIs compact to themselves
	if got := pm.Compact("urn:other"); got != "urn:other" {
		t.Fatalf("Compact(unknown) = %q", got)
	}
}

func TestPrefixMapLongestBaseWins(t *testing.T) {
	pm := NewPrefixMap()
	pm.Add("a", "http://x/")
	pm.Add("b", "http://x/deep/")
	if got := pm.Compact("http://x/deep/v"); got != "b:v" {
		t.Fatalf("Compact = %q, want b:v", got)
	}
	// rebinding a prefix replaces its base
	pm.Add("a", "http://y/")
	if got := pm.Compact("http://y/z"); got != "a:z" {
		t.Fatalf("Compact after rebind = %q", got)
	}
}

// TestPrefixMapAddOrder: Add places an entry where re-sorting the whole
// table stably by decreasing base length — what Add used to do on every
// insert — would leave it, for new and rebound prefixes alike.
func TestPrefixMapAddOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		pm := NewPrefixMap()
		var want []prefixEntry
		for step := 0; step < 12; step++ {
			prefix := string(rune('a' + rng.Intn(5)))
			base := strings.Repeat("x", 1+rng.Intn(4))
			pm.Add(prefix, base)
			replaced := false
			for i := range want {
				if want[i].prefix == prefix {
					want[i].base, replaced = base, true
				}
			}
			if !replaced {
				want = append(want, prefixEntry{prefix, base})
			}
			sort.SliceStable(want, func(i, j int) bool { return len(want[i].base) > len(want[j].base) })
			if len(pm.bases) != len(want) {
				t.Fatalf("round %d step %d: %d entries, want %d", round, step, len(pm.bases), len(want))
			}
			for i := range want {
				if pm.bases[i] != want[i] {
					t.Fatalf("round %d step %d: order %v, want %v", round, step, pm.bases, want)
				}
			}
		}
	}
}
