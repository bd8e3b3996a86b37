package sparql

import (
	"fmt"
	"testing"

	"sofya/internal/kb"
)

// benchKB builds a frozen KB with one large predicate of n facts — the
// shape of a discover/body-sample window over a big relation.
func benchKB(n int) *kb.KB {
	k := kb.New("bench")
	for i := 0; i < n; i++ {
		k.AddIRIs(fmt.Sprintf("http://b/s%06d", i), "http://b/p", fmt.Sprintf("http://b/o%06d", i))
	}
	k.Freeze()
	return k
}

const benchProbeRows = 50_000

// BenchmarkRandProbeLimitK is the aligner's hot probe shape — ORDER BY
// RAND() LIMIT k on a large predicate — through the prepared drain
// path. With the bounded top-k selection the execution allocates O(k)
// rows; pair it with BenchmarkRandProbeFullDrain (same predicate, LIMIT
// = result size) to see the O(result) contrast in allocs/op.
func BenchmarkRandProbeLimitK(b *testing.B) {
	k := benchKB(benchProbeRows)
	e := NewEngineSeeded(k, 1)
	tmpl := MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	p, err := e.Prepare(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Exec(IRIArg("http://b/p"), IntArg(10))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkRandProbeFullDrain is the same probe with the LIMIT opened
// to the full result — the cost the engine paid per probe before
// bounded selection, and still pays when a caller wants everything.
func BenchmarkRandProbeFullDrain(b *testing.B) {
	k := benchKB(benchProbeRows)
	e := NewEngineSeeded(k, 1)
	tmpl := MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	p, err := e.Prepare(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Exec(IRIArg("http://b/p"), IntArg(benchProbeRows))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != benchProbeRows {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkStreamEarlyClose pulls k rows from an un-LIMITed scan of the
// large predicate and closes — the consumer-driven early exit that
// drained execution cannot express at all.
func BenchmarkStreamEarlyClose(b *testing.B) {
	k := benchKB(benchProbeRows)
	e := NewEngineSeeded(k, 1)
	tmpl := MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	p, err := e.Prepare(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := p.Iter(IRIArg("http://b/p"))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10; j++ {
			if !it.Next() {
				b.Fatal("short stream")
			}
		}
		it.Close()
	}
}

// BenchmarkStreamFullScan drains the same scan completely, for the
// wall-clock and allocation contrast with the early close.
func BenchmarkStreamFullScan(b *testing.B) {
	k := benchKB(benchProbeRows)
	e := NewEngineSeeded(k, 1)
	tmpl := MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	p, err := e.Prepare(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := p.Iter(IRIArg("http://b/p"))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		if n != benchProbeRows {
			b.Fatalf("rows = %d", n)
		}
	}
}

// BenchmarkFilterClosureProbe measures the compiled-filter hot loop:
// a join with an attached comparison + EXISTS filter over the large
// predicate, the shape the closure lowering (cexpr.go) targets.
func BenchmarkFilterClosureProbe(b *testing.B) {
	k := benchKB(2_000)
	e := NewEngineSeeded(k, 1)
	tmpl := MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y . FILTER (STRLEN(STR(?y)) > 3 && NOT EXISTS { ?y <http://b/p> ?x }) } LIMIT 64", "r")
	p, err := e.Prepare(tmpl)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exec(IRIArg("http://b/p")); err != nil {
			b.Fatal(err)
		}
	}
}

// sampleKB builds the relation pair the sampling probes run over:
// subjects subjects, each with one p-object and one q-object, which the
// overlap probe's a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2) matches once a subject.
func sampleKB(subjects int) *kb.KB {
	k := kb.New("sample")
	for i := 0; i < subjects; i++ {
		s := fmt.Sprintf("http://b/s%06d", i)
		k.AddIRIs(s, "http://b/p", fmt.Sprintf("http://b/o%06d", i))
		k.AddIRIs(s, "http://b/q", fmt.Sprintf("http://b/o%06d", i+1))
	}
	k.Freeze()
	return k
}

// sampleProbes are the aligner's two sampling probes with a 200-row
// window (sampling.TmplSample and sampling.TmplOverlap, copied here
// because sampling imports this package) over sampleKB's relations.
var sampleProbes = []struct {
	name string
	tmpl *Template
	args []Arg
}{
	{"sample", MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n"),
		[]Arg{IRIArg("http://b/p"), IntArg(200)}},
	{"overlap", MustParseTemplate(`SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`, "a", "b", "n"),
		[]Arg{IRIArg("http://b/p"), IRIArg("http://b/q"), IntArg(200)}},
}

// sampleEarlyClose is how many window rows the short stream readings
// take before closing: a sampler closes its window once it has its
// sample, often a few rows in.
const sampleEarlyClose = 14

// readStream opens p's stream on args — borrowed or not — reads at
// most n rows (n < 0: all of them) and closes it, returning how many it
// read.
func readStream(p *Prepared, args []Arg, borrowed bool, n int) (int, error) {
	open := p.Iter
	if borrowed {
		open = p.IterBorrowed
	}
	it, err := open(args...)
	if err != nil {
		return 0, err
	}
	defer it.Close()
	read := 0
	for read != n && it.Next() {
		read++
	}
	return read, it.Err()
}

// BenchmarkRandSample is the selection the aligner's two sampling
// probes run, over a relation smaller than the 200-row fetch window —
// every match is kept — and one far larger: executed whole (Exec), and
// as a stream (Iter, IterBorrowed) read to the end of the window or
// closed after sampleEarlyClose rows.
func BenchmarkRandSample(b *testing.B) {
	for _, size := range []struct {
		name     string
		subjects int
	}{{"small", 100}, {"large", benchProbeRows}} {
		e := NewEngineSeeded(sampleKB(size.subjects), 1)
		want := min(size.subjects, 200)
		for _, probe := range sampleProbes {
			prep, err := e.Prepare(probe.tmpl)
			if err != nil {
				b.Fatal(err)
			}
			name := probe.name + "/" + size.name
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := prep.Exec(probe.args...)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Rows) != want {
						b.Fatalf("rows = %d, want %d", len(res.Rows), want)
					}
				}
			})
			for _, stream := range []struct {
				name     string
				borrowed bool
			}{{"Iter", false}, {"IterBorrowed", true}} {
				for _, read := range []struct {
					name string
					n    int
				}{{"window", -1}, {fmt.Sprintf("%drows", sampleEarlyClose), sampleEarlyClose}} {
					wantRead := want
					if read.n >= 0 {
						wantRead = min(want, read.n)
					}
					b.Run(name+"/"+stream.name+"/"+read.name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							got, err := readStream(prep, probe.args, stream.borrowed, read.n)
							if err != nil || got != wantRead {
								b.Fatalf("read %d rows, want %d: %v", got, wantRead, err)
							}
						}
					})
				}
			}
		}
	}
}
