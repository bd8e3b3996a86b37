package strsim

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"sofya/internal/rdf"
)

func TestJaroKnownValues(t *testing.T) {
	// canonical textbook example: MARTHA/MARHTA ≈ 0.944
	if s := Jaro("MARTHA", "MARHTA"); s < 0.94 || s > 0.95 {
		t.Fatalf("Jaro(MARTHA,MARHTA) = %f", s)
	}
	if Jaro("", "") != 1 || Jaro("a", "") != 0 {
		t.Fatal("empty-string handling")
	}
	if Jaro("abc", "abc") != 1 {
		t.Fatal("identity")
	}
	if Jaro("abc", "xyz") != 0 {
		t.Fatal("disjoint")
	}
}

func TestJaroWinklerPrefixBoost(t *testing.T) {
	j := Jaro("prefixed", "prefixes")
	jw := JaroWinkler("prefixed", "prefixes")
	if jw <= j {
		t.Fatalf("JW (%f) should exceed Jaro (%f) for shared prefixes", jw, j)
	}
	if JaroWinkler("abc", "abc") != 1 {
		t.Fatal("identity")
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"  Frank   Sinatra ", "frank sinatra"},
		{"Jean-Paul Sartre", "jean paul sartre"},
		{"U.S.A.", "u s a"},
		{"", ""},
		{"---", ""},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	if f, ok := ParseNumber(" 1,234.5 "); !ok || f != 1234.5 {
		t.Fatalf("ParseNumber = %f, %v", f, ok)
	}
	if _, ok := ParseNumber("not a number"); ok {
		t.Fatal("garbage accepted")
	}
	if _, ok := ParseNumber(""); ok {
		t.Fatal("empty accepted")
	}
}

// Property: similarity measures stay in [0,1], are symmetric, and give 1
// for identical strings.
func TestQuickMetricAxioms(t *testing.T) {
	measures := map[string]func(a, b string) float64{
		"jaro":        Jaro,
		"jaroWinkler": JaroWinkler,
	}
	for name, sim := range measures {
		f := func(a, b string) bool {
			s := sim(a, b)
			if s < 0 || s > 1 {
				return false
			}
			if sim(b, a) != s {
				return false
			}
			return sim(a, a) == 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestLiteralMatcherNumeric(t *testing.T) {
	m := DefaultMatcher()
	ok, s := m.Match(rdf.NewTypedLiteral("42", rdf.XSDInteger), rdf.NewTypedLiteral("42.0", rdf.XSDDouble))
	if !ok || s != 1 {
		t.Fatalf("numeric match = %v, %f", ok, s)
	}
	ok, _ = m.Match(rdf.NewTypedLiteral("42", rdf.XSDInteger), rdf.NewTypedLiteral("43", rdf.XSDInteger))
	if ok {
		t.Fatal("42 matched 43")
	}
	// plain numeric literals participate
	ok, _ = m.Match(rdf.NewLiteral("1234"), rdf.NewTypedLiteral("1234", rdf.XSDInteger))
	if !ok {
		t.Fatal("plain numeric vs typed numeric")
	}
}

func TestLiteralMatcherDates(t *testing.T) {
	m := DefaultMatcher()
	ok, _ := m.Match(rdf.NewTypedLiteral("1815-12-10", rdf.XSDDate), rdf.NewTypedLiteral("1815", rdf.XSDGYear))
	if !ok {
		t.Fatal("date vs gYear with same year should match")
	}
	ok, _ = m.Match(rdf.NewTypedLiteral("1815-12-10", rdf.XSDDate), rdf.NewTypedLiteral("1816", rdf.XSDGYear))
	if ok {
		t.Fatal("different years matched")
	}
	// plain ISO date literal
	ok, _ = m.Match(rdf.NewLiteral("1815-12-10"), rdf.NewTypedLiteral("1815", rdf.XSDGYear))
	if !ok {
		t.Fatal("plain ISO date vs gYear")
	}
}

func TestLiteralMatcherStrings(t *testing.T) {
	m := DefaultMatcher()
	ok, s := m.Match(rdf.NewLiteral("Frank Sinatra"), rdf.NewLangLiteral("frank  sinatra", "en"))
	if !ok || s != 1 {
		t.Fatalf("normalized exact = %v, %f", ok, s)
	}
	ok, _ = m.Match(rdf.NewLiteral("Frank Sinatra"), rdf.NewLiteral("Frank Sinatre"))
	if !ok {
		t.Fatal("near-identical names should fuzzy-match")
	}
	ok, _ = m.Match(rdf.NewLiteral("Frank Sinatra"), rdf.NewLiteral("Miles Davis"))
	if ok {
		t.Fatal("unrelated names matched")
	}
	// non-literals never match
	ok, _ = m.Match(rdf.NewIRI("http://x/a"), rdf.NewLiteral("a"))
	if ok {
		t.Fatal("IRI matched a literal")
	}
	// empty strings never match
	ok, _ = m.Match(rdf.NewLiteral(""), rdf.NewLiteral(""))
	if ok {
		t.Fatal("empty literals matched")
	}
}

func TestLiteralMatcherBest(t *testing.T) {
	m := DefaultMatcher()
	candidates := []rdf.Term{
		rdf.NewLiteral("Mile Davis"),
		rdf.NewLiteral("Frank Sinatra"),
		rdf.NewLiteral("Frank Sinatre"),
	}
	best, score, ok := m.Best(rdf.NewLiteral("Frank Sinatra"), candidates)
	if !ok || best.Value != "Frank Sinatra" || score != 1 {
		t.Fatalf("Best = %v, %f, %v", best, score, ok)
	}
	_, _, ok = m.Best(rdf.NewLiteral("zzz"), candidates)
	if ok {
		t.Fatal("Best matched nothing similar")
	}
}

func TestLiteralMatcherCustomSim(t *testing.T) {
	sameTokens := func(a, b string) float64 {
		ta, tb := strings.Fields(a), strings.Fields(b)
		sort.Strings(ta)
		sort.Strings(tb)
		if reflect.DeepEqual(ta, tb) {
			return 1
		}
		return 0
	}
	m := &LiteralMatcher{Threshold: 0.5, Sim: sameTokens}
	ok, _ := m.Match(rdf.NewLiteral("alpha beta gamma"), rdf.NewLiteral("beta gamma alpha"))
	if !ok {
		t.Fatal("token-based matcher should be order-invariant")
	}
	// nil Sim falls back to JaroWinkler
	m2 := &LiteralMatcher{Threshold: 0.99}
	ok, _ = m2.Match(rdf.NewLiteral("abc"), rdf.NewLiteral("abc"))
	if !ok {
		t.Fatal("default sim fallback broken")
	}
}
