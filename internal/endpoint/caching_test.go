package endpoint

import (
	"context"
	"math"
	"strings"
	"testing"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// TestPreparedKeyBytes holds preparedKey to its rendering written out
// with a strings.Builder and Arg.Key: the form, the endpoint name and the
// source NUL-separated, each parameter after 0x1e, each argument's
// canonical rendering after 0x1f — over every kind of term an argument
// carries, integers of both signs and extremes, no parameters at all,
// and a key longer than preparedKey's stack buffer.
func TestPreparedKeyBytes(t *testing.T) {
	want := func(form byte, name, source string, params []string, args []sparql.Arg) string {
		var sb strings.Builder
		sb.WriteByte('P')
		sb.WriteByte(form)
		sb.WriteByte(0)
		sb.WriteString(name)
		sb.WriteByte(0)
		sb.WriteString(source)
		for _, p := range params {
			sb.WriteByte(0x1e)
			sb.WriteString(p)
		}
		for _, a := range args {
			sb.WriteByte(0x1f)
			sb.WriteString(a.Key())
		}
		return sb.String()
	}
	long := "http://x/" + strings.Repeat("long/", 80)
	for _, c := range []struct {
		name   string
		form   byte
		params []string
		args   []sparql.Arg
	}{
		{"no params or args", 'S', nil, nil},
		{"iris", 'S', []string{"x", "r"}, []sparql.Arg{sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/p")}},
		{"escaped literal", 'A', []string{"o"}, []sparql.Arg{sparql.TermArg(rdf.NewLiteral("a\"b\\c\nd\te\rf"))}},
		{"language tag", 'S', []string{"o"}, []sparql.Arg{sparql.TermArg(rdf.NewLangLiteral("chat", "fr-CA"))}},
		{"datatype", 'S', []string{"o"}, []sparql.Arg{sparql.TermArg(rdf.NewTypedLiteral("1999", rdf.XSDGYear))}},
		{"xsd:string", 'S', []string{"o"}, []sparql.Arg{sparql.TermArg(rdf.NewTypedLiteral("s", rdf.XSDString))}},
		{"blank node", 'S', []string{"o"}, []sparql.Arg{sparql.TermArg(rdf.NewBlank("b0"))}},
		{"negative limit", 'S', []string{"r", "n"}, []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(-7)}},
		{"extreme limits", 'S', []string{"n", "m"}, []sparql.Arg{sparql.IntArg(math.MaxInt), sparql.IntArg(math.MinInt)}},
		{"past the buffer", 'S', []string{"a", "b", "c", "n"}, []sparql.Arg{sparql.IRIArg(long), sparql.TermArg(rdf.NewLiteral(long + "\n")), sparql.IRIArg("http://x/p"), sparql.IntArg(14)}},
	} {
		got := preparedKey(c.form, "ep", sampleTmpl, c.params, c.args)
		if w := want(c.form, "ep", sampleTmpl, c.params, c.args); got != w {
			t.Errorf("%s: key %q, want %q", c.name, got, w)
		}
	}
}

// TestAllocCeilingPreparedKey pins a memo key at one allocation — the
// string itself — for a four-argument probe.
func TestAllocCeilingPreparedKey(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	params := []string{"a", "b", "o", "n"}
	args := []sparql.Arg{
		sparql.IRIArg("http://dbpedia.org/ontology/birthPlace"),
		sparql.IRIArg("http://dbpedia.org/ontology/deathPlace"),
		sparql.TermArg(rdf.NewLangLiteral("Zürich", "de")),
		sparql.IntArg(200),
	}
	got := testing.AllocsPerRun(100, func() {
		preparedKey('S', "dbpedia", sampleTmpl, params, args)
	})
	if got != 1 {
		t.Fatalf("%.0f allocations a key, want 1", got)
	}
}

// TestCachingLRUOrder runs prepared probes through a memo of three: a
// hit makes its entry the most recently used, the least recently used
// one is evicted and runs the inner call again, and a purged memo stores
// anew, in the same order, in the table it kept. Len and CacheStats agree
// throughout.
func TestCachingLRUOrder(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 3)
	pq, err := c.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	run := func(subject string, wantInner int64) {
		t.Helper()
		if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/"+subject)); err != nil {
			t.Fatal(err)
		}
		if got := inner.selects.Load(); got != wantInner {
			t.Fatalf("after %s: %d inner calls, want %d", subject, got, wantInner)
		}
	}
	check := func(want CacheStats, entries int) {
		t.Helper()
		if got := c.CacheStats(); got != want || c.Len() != entries {
			t.Fatalf("stats %+v and Len %d, want %+v and %d", got, c.Len(), want, entries)
		}
	}
	run("a", 1)
	run("b", 2)
	run("c", 3)
	check(CacheStats{Misses: 3}, 3)
	run("a", 3) // a hit: a is now the most recently used, b the least
	check(CacheStats{Hits: 1, Misses: 3}, 3)
	run("d", 4) // evicts b
	check(CacheStats{Hits: 1, Misses: 4, Evictions: 1}, 3)
	run("a", 4)
	run("c", 4)
	run("d", 4)
	run("b", 5) // evicts a, the least recently used since the hits
	check(CacheStats{Hits: 4, Misses: 5, Evictions: 2}, 3)
	run("a", 6)
	check(CacheStats{Hits: 4, Misses: 6, Evictions: 3}, 3)

	c.Purge()
	check(CacheStats{Hits: 4, Misses: 6, Evictions: 3}, 0)
	run("a", 7)
	run("a", 7)
	check(CacheStats{Hits: 5, Misses: 7, Evictions: 3}, 1)

	// A second fill of the purged table evicts in LRU order too.
	run("b", 8)
	run("c", 9)
	run("a", 9)  // a hit: the order is a, c, b
	run("d", 10) // evicts b
	check(CacheStats{Hits: 6, Misses: 10, Evictions: 4}, 3)
	run("c", 10)
	run("b", 11) // evicts a
	run("d", 11)
	run("a", 12) // evicts c
	check(CacheStats{Hits: 8, Misses: 12, Evictions: 6}, 3)
	c.Purge()
	check(CacheStats{Hits: 8, Misses: 12, Evictions: 6}, 0)
	run("d", 13)
	check(CacheStats{Hits: 8, Misses: 13, Evictions: 6}, 1)
}
