package sparql

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// rand_test.go covers the RAND() stream's plumbing: the pooled PRNG
// state (randSource) and the cost of the sampling-probe shape it feeds
// (selectWindow's OfferDraw branch).

// TestPooledRandStreamIdentical holds the pooled stream to its
// definition, written out here the way the reference engine writes it:
// a fresh standard source seeded with seed*1_000_003 XOR the FNV-64a of
// the text (hash/fnv's, against which fnv64a is held too). A recycled state must give the same draws whatever its
// previous holder did with it.
func TestPooledRandStreamIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		// Dirty a state and hand it back: the next randSource on this
		// goroutine is likely to get it.
		prior := randSource(rng.Int63(), fnv64a(fnvOffset, "prior"))
		for j := rng.Intn(700); j > 0; j-- {
			if j%3 == 0 {
				prior.Int63()
			} else {
				prior.Float64()
			}
		}
		randPool.Put(prior)

		seed := rng.Int63() - 1<<62
		text := fmt.Sprintf("SELECT ?x WHERE { ?x <http://x/p%d> ?y } ORDER BY RAND() LIMIT %d", rng.Intn(50), i)
		h := fnv.New64a()
		io.WriteString(h, text)
		want := rand.New(rand.NewSource(seed*1_000_003 ^ int64(h.Sum64())))

		got := randSource(seed, fnv64a(fnvOffset, text))
		for d := 0; d < 256; d++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("pair %d, draw %d: pooled stream gives %v, a fresh source %v", i, d, g, w)
			}
		}
		randPool.Put(got)
	}
}

// TestTemplateFingerprint holds the fingerprint a prepared execution
// seeds its RAND() stream with to its definition, hash/fnv's FNV-64a of
// the instantiated text, on arguments the aligner never sends: escaped
// and non-ASCII literals, invalid UTF-8, language tags and datatypes,
// blank nodes, a term longer than the hashing buffer, LIMIT 0 and the
// largest LIMIT.
func TestTemplateFingerprint(t *testing.T) {
	tm := MustParseTemplate(`SELECT ?x ?y WHERE {
  ?x $r ?y .
  ?x $r $o .
  FILTER NOT EXISTS { ?y $r $o }
} ORDER BY RAND() LIMIT $n`, "r", "o", "n")
	long := "http://x/" + strings.Repeat("long/", 80)
	for _, c := range []struct {
		name string
		r, o rdf.Term
		n    int
	}{
		{"iri", rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"), 14},
		{"escapes", rdf.NewIRI("http://x/p"), rdf.NewLiteral("a\"b\\c\nd\te\rf"), 1},
		{"non-ascii", rdf.NewIRI("http://x/p"), rdf.NewLiteral("naïve — 日本"), 2},
		{"invalid utf-8", rdf.NewIRI("http://x/p"), rdf.NewLiteral("x\xffy\xc3"), 3},
		{"language tag", rdf.NewIRI("http://x/p"), rdf.NewLangLiteral("chat", "fr-CA"), 4},
		{"datatype", rdf.NewIRI("http://x/p"), rdf.NewTypedLiteral("1999", rdf.XSDGYear), 5},
		{"xsd:string", rdf.NewIRI("http://x/p"), rdf.NewTypedLiteral("s", rdf.XSDString), 6},
		{"blank node", rdf.NewIRI("http://x/p"), rdf.NewBlank("b0"), 7},
		{"long term", rdf.NewIRI(long), rdf.NewLiteral(long + "\n"), 8},
		{"limit 0", rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"), 0},
		{"largest limit", rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/o"), math.MaxInt},
	} {
		args := []Arg{TermArg(c.r), TermArg(c.o), IntArg(c.n)}
		text, err := tm.Text(args...)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		io.WriteString(h, text)
		if got, want := tm.fingerprint(args), h.Sum64(); got != want {
			t.Errorf("%s: fingerprint %#x, FNV-64a of %q %#x", c.name, got, text, want)
		}
	}
}

// TestConcurrentRandStreams runs ordered probes from many goroutines at
// once — the sampling shape and a keyed DISTINCT … ORDER BY ?x LIMIT
// (OrderSelector's OfferKeys path), through Iter and IterBorrowed —
// closing each stream before its first row, after one, mid-window or
// past the end. Every execution hands its PRNG, selector and id arena
// back to their pools when it ends, and which stream gets them next is
// decided between goroutines: a scratch still in use must never be
// handed out again, so every row read must be Exec's.
func TestConcurrentRandStreams(t *testing.T) {
	e := NewEngineSeeded(sampleKB(500), 3)
	shapes := []struct {
		tmpl *Template
		args func(n int) []Arg
	}{
		{MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n"),
			func(n int) []Arg { return []Arg{IRIArg("http://b/p"), IntArg(n)} }},
		{MustParseTemplate("SELECT DISTINCT ?x WHERE { ?x ?p ?y } ORDER BY ?x LIMIT $n", "n"),
			func(n int) []Arg { return []Arg{IntArg(n)} }},
	}
	type exec struct {
		p    *Prepared
		args []Arg
		want *Result
	}
	var execs []exec
	for _, sh := range shapes {
		p, err := e.Prepare(sh.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n < 10; n++ {
			want, err := p.Exec(sh.args(n)...)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) != n {
				t.Fatalf("LIMIT %d: Exec gave %d rows", n, len(want.Rows))
			}
			execs = append(execs, exec{p, sh.args(n), want})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				x := execs[(g+round)%len(execs)]
				open := x.p.Iter
				if (g+round)%3 == 0 {
					open = x.p.IterBorrowed
				}
				it, err := open(x.args...)
				if err != nil {
					t.Error(err)
					return
				}
				rows := len(x.want.Rows)
				// Close before the first row, after one, mid-window, past the end.
				read := []int{0, 1, rows / 2, rows + 1}[(g*7+round)%4]
				for i := 0; i < read; i++ {
					if !it.Next() {
						if i < rows {
							t.Errorf("%v: stream ended at row %d of %d: %v", x.args, i, rows, it.Err())
						}
						break
					}
					if i >= rows {
						t.Errorf("%v: row %d past the %d of Exec", x.args, i, rows)
						break
					}
					if !slices.Equal(it.Row(), x.want.Rows[i]) {
						t.Errorf("%v: stream diverged at row %d: %v, Exec %v", x.args, i, it.Row(), x.want.Rows[i])
						break
					}
				}
				it.Close()
			}
		}(g)
	}
	wg.Wait()
}

// TestAllocCeilingRandSample pins the typed selector's bound: an ORDER
// BY RAND() LIMIT 200 execution holds 200 rows however many match, so
// it allocates the same over a 10³- and a 10⁵-fact relation — a
// selector that buffered every match would not.
func TestAllocCeilingRandSample(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := func(k *kb.KB) float64 {
		p, err := NewEngineSeeded(k, 1).Prepare(MustParseTemplate(
			"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n"))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := p.Exec(IRIArg("http://b/p"), IntArg(200))
			if err != nil || len(res.Rows) != 200 {
				t.Fatalf("sample: %d rows, %v", len(res.Rows), err)
			}
		}
		run() // fill the PRNG pool
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(benchKB(1_000)), allocs(benchKB(100_000))
	if small != large {
		t.Fatalf("%.0f allocs/op over 10³ facts, %.0f over 10⁵: the selection is not bounded by the LIMIT", small, large)
	}
	// 200 result rows, the result's row slice and the execution's fixed
	// state: the selector and its arena come from their pools. Measured
	// at 220.
	if large > 228 {
		t.Fatalf("%.0f allocs/op, ceiling 228", large)
	}
	t.Logf("%.0f allocs/op", large)
}

// TestAllocCeilingBorrowedWindow pins what a borrowed stream of a
// sampling probe allocates: the execution's fixed state and one row
// buffer, whether the 200-row window is read to its end or closed after
// sampleEarlyClose rows, over a relation of 10³ subjects and one of 10⁵.
// A row allocated per emission, a selection that buffered every match or
// scratch that is not reused would each break the equality.
func TestAllocCeilingBorrowedWindow(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	small, large := NewEngineSeeded(sampleKB(1_000), 1), NewEngineSeeded(sampleKB(100_000), 1)
	for _, probe := range sampleProbes {
		var counts []float64
		for _, e := range []*Engine{small, large} {
			p, err := e.Prepare(probe.tmpl)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{-1, sampleEarlyClose} {
				want := 200
				if n >= 0 {
					want = n
				}
				run := func() {
					if got, err := readStream(p, probe.args, true, n); err != nil || got != want {
						t.Fatalf("%s: read %d rows, want %d: %v", probe.name, got, want, err)
					}
				}
				run() // fill the pools
				counts = append(counts, testing.AllocsPerRun(20, run))
			}
		}
		for _, c := range counts[1:] {
			if c != counts[0] {
				t.Fatalf("%s: %v allocs/op (10³ subjects: window, %d rows; 10⁵: window, %d rows); want one count",
					probe.name, counts, sampleEarlyClose, sampleEarlyClose)
			}
		}
		// Measured at 20 (sample) and 35 (overlap, whose NOT EXISTS plans
		// its subgroup).
		if counts[0] > 40 {
			t.Fatalf("%s: %.0f allocs/op, ceiling 40", probe.name, counts[0])
		}
		t.Logf("%s: %.0f allocs/op", probe.name, counts[0])
	}
}
