package sofya

// Benchmark harness: one benchmark per experiment of DESIGN.md §4 (E1 =
// the paper's Table 1, whose baseline grid E3 renders; E2 and E4–E7 the
// extension ablations) plus
// micro-benchmarks of the substrates. The experiment benchmarks run on
// the tiny world so that `go test -bench=.` finishes in minutes; the
// paper-scale numbers are produced by `go run ./cmd/experiments -spec
// paper` and recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/experiments"
	"sofya/internal/kb"
	"sofya/internal/paris"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/strsim"
	"sofya/internal/synth"
)

var (
	benchWorldOnce sync.Once
	benchWorld     *synth.World
)

func world(b *testing.B) *synth.World {
	b.Helper()
	benchWorldOnce.Do(func() { benchWorld = synth.Generate(synth.TinySpec()) })
	return benchWorld
}

func benchSetup(b *testing.B) *experiments.Setup {
	return experiments.NewSetup(world(b))
}

// E1 — Table 1: the three method rows.
func BenchmarkTable1_PCABaseline(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(experiments.DbpToYago, core.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_CWABaseline(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(experiments.DbpToYago, core.CWAConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1_UBS(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(experiments.DbpToYago, core.UBSConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_FullBothDirections times the whole of Table 1: the
// 80-run baseline grid (pcaconf and cwaconf at each of the 20 τ, both
// directions), from which E3 renders too, and the two UBS runs.
func BenchmarkTable1_FullBothDirections(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(s); err != nil {
			b.Fatal(err)
		}
	}
}

// E2 — sample-size sweep.
func BenchmarkSampleSizeSweep(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SampleSizeSweep(s, []int{2, 10, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — query-budget accounting.
func BenchmarkQueryBudget(b *testing.B) {
	s := benchSetup(b)
	res, err := experiments.Table1(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.QueryBudget(s, res)
	}
}

// E5 — sameAs-coverage sensitivity.
func BenchmarkSameAsCoverage(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SameAsCoverage(s, []float64{0.5, 1.0}); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 — UBS strategy ablation.
func BenchmarkUBSAblation(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UBSAblation(s); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — snapshot (PARIS-style) baseline.
func BenchmarkSnapshotBaseline(b *testing.B) {
	w := world(b)
	links := sampling.LinkView{Links: w.Links, KIsA: true}
	for i := 0; i < b.N; i++ {
		paris.Align(w.Yago, w.Dbp, links, paris.DefaultConfig())
	}
}

// --- micro-benchmarks of the substrates ---

func BenchmarkAlignRelation_UBS(b *testing.B) {
	w := world(b)
	k := endpoint.NewLocal(w.Yago, 1)
	kp := endpoint.NewLocal(w.Dbp, 2)
	a := core.New(k, kp, sampling.LinkView{Links: w.Links, KIsA: true}, core.UBSConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AlignRelation("http://yago-knowledge.org/resource/directedBy"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		synth.Generate(synth.TinySpec())
	}
}

func BenchmarkSPARQLParse(b *testing.B) {
	q := `SELECT DISTINCT ?x ?y WHERE {
		?x <http://x/p> ?y .
		?y <http://x/q> ?z .
		FILTER NOT EXISTS { ?x <http://x/r> ?z }
		FILTER (?x != ?y && STRLEN(STR(?x)) > 3)
	} ORDER BY RAND() LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// bindExec runs a query text the way an endpoint runs it: bound to the
// plan cached for its shape, then executed. The canonical text of a
// query is bound without a parse once the engine has met its shape.
func bindExec(e *sparql.Engine, text string) error {
	p, err := e.BindText(text)
	if err != nil {
		return err
	}
	_, err = p.Exec()
	return err
}

func BenchmarkSPARQLSelectIndexed(b *testing.B) {
	w := world(b)
	e := sparql.NewEngine(w.Yago)
	q := sparql.MustParse(
		`SELECT ?y WHERE { <http://yago-knowledge.org/resource/The_Nocturne_of_the_Shadow_0> ?p ?y }`)
	text := q.String() // the canonical text a client sends
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bindExec(e, text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPARQLSelectScan(b *testing.B) {
	w := world(b)
	e := sparql.NewEngine(w.Yago)
	q := sparql.MustParse(
		`SELECT ?x ?y WHERE { ?x <http://yago-knowledge.org/resource/created> ?y } ORDER BY RAND() LIMIT 50`)
	text := q.String() // the canonical text a client sends
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bindExec(e, text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndpointSelect(b *testing.B) {
	w := world(b)
	ep := endpoint.NewLocal(w.Yago, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ep.SelectCtx(context.Background(), `SELECT ?x ?y WHERE { ?x <http://yago-knowledge.org/resource/wasBornIn> ?y } LIMIT 20`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- prepared templates vs text interpolation ---
//
// The pair below measures the PR's tentpole claim directly: the same
// probe (the aligner's predicates-between shape) through the seed-style
// text path — Sprintf, parse, plan, evaluate — and through a prepared
// template that binds two TermID registers. Run with -benchmem; the
// prepared path must win on both ns/op and allocs/op.

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

func benchProbeEntities(b *testing.B) (x, y string) {
	w := world(b)
	k := w.Yago
	rels := k.Relations()
	for _, p := range rels {
		for _, s := range subjectsWith(k, p) {
			objs := k.ObjectsOf(s, p)
			if len(objs) > 0 && k.Term(objs[0]).IsIRI() {
				return k.Term(s).Value, k.Term(objs[0]).Value
			}
		}
	}
	b.Skip("no entity-entity fact")
	return "", ""
}

func BenchmarkQueryTextPath(b *testing.B) {
	w := world(b)
	ep := endpoint.NewLocal(w.Yago, 1)
	x, y := benchProbeEntities(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT ?p WHERE { <%s> ?p <%s> }", x, y)
		if _, err := ep.SelectCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPreparedPath(b *testing.B) {
	w := world(b)
	ep := endpoint.NewLocal(w.Yago, 1)
	x, y := benchProbeEntities(b)
	pq, err := ep.Prepare("SELECT ?p WHERE { $x ?p $y }", "x", "y")
	if err != nil {
		b.Fatal(err)
	}
	ax, ay := sparql.IRIArg(x), sparql.IRIArg(y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.SelectCtx(context.Background(), ax, ay); err != nil {
			b.Fatal(err)
		}
	}
}

// The sampling shape with its RAND() stream: prepared vs text.
func BenchmarkSampleTextPath(b *testing.B) {
	w := world(b)
	ep := endpoint.NewLocal(w.Yago, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT %d",
			"http://yago-knowledge.org/resource/wasBornIn", 50)
		if _, err := ep.SelectCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSamplePreparedPath(b *testing.B) {
	w := world(b)
	ep := endpoint.NewLocal(w.Yago, 1)
	pq, err := ep.Prepare(sampling.TmplSample, "r", "n")
	if err != nil {
		b.Fatal(err)
	}
	r := sparql.IRIArg("http://yago-knowledge.org/resource/wasBornIn")
	n := sparql.IntArg(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.SelectCtx(context.Background(), r, n); err != nil {
			b.Fatal(err)
		}
	}
}

// DISTINCT dedup over TermID keys (was: string concatenation per row).
func BenchmarkSPARQLDistinct(b *testing.B) {
	w := world(b)
	e := sparql.NewEngine(w.Yago)
	q := sparql.MustParse(`SELECT DISTINCT ?x WHERE { ?x ?p ?y }`)
	text := q.String() // the canonical text a client sends
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bindExec(e, text); err != nil {
			b.Fatal(err)
		}
	}
}

// KB freeze cost, for sizing the load → serve transition.
func BenchmarkKBFreeze(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := synth.Generate(synth.TinySpec())
		b.StartTimer()
		w.Yago.Freeze()
	}
}

func BenchmarkSimpleSampling(b *testing.B) {
	w := world(b)
	v, err := sampling.NewValidator(endpoint.NewLocal(w.Yago, 1), endpoint.NewLocal(w.Dbp, 2),
		sampling.LinkView{Links: w.Links, KIsA: true}, strsim.DefaultMatcher())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rules := []sampling.Rule{{
			Body: "http://dbpedia.org/property/birthPlace",
			Head: "http://yago-knowledge.org/resource/wasBornIn",
		}}
		if err := v.SimpleEvidenceEach(new(sampling.ObjectMemo), rules, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnbiasedSampling(b *testing.B) {
	w := world(b)
	v, err := sampling.NewValidator(endpoint.NewLocal(w.Yago, 1), endpoint.NewLocal(w.Dbp, 2),
		sampling.LinkView{Links: w.Links, KIsA: true}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := []sampling.SiblingPair{{
			A:     "http://dbpedia.org/property/hasDirector",
			B:     "http://dbpedia.org/property/hasProducer",
			Check: "http://yago-knowledge.org/resource/directedBy",
		}}
		if err := v.ContradictionsEach(new(sampling.ObjectMemo), sampling.BodySide, pairs, 14); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiteralMatcher(b *testing.B) {
	m := strsim.DefaultMatcher()
	a := NewLiteral("Frank_Sinatra_Jr")
	c := NewLangLiteral("Frank Sinatra Jr", "en")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(a, c)
	}
}

func BenchmarkJaroWinkler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		strsim.JaroWinkler("The Cathedral of the Orchard", "The Cathedrel of the Orchad")
	}
}

func BenchmarkKBHasFact(b *testing.B) {
	w := world(b)
	k := w.Yago
	rels := k.Relations()
	p := rels[len(rels)/2]
	subs := subjectsWith(k, p)
	if len(subs) == 0 {
		b.Skip("empty relation")
	}
	s := subs[0]
	o := k.ObjectsOf(s, p)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.HasFact(s, p, o) {
			b.Fatal("fact vanished")
		}
	}
}

func BenchmarkKBLoadNTriples(b *testing.B) {
	w := world(b)
	var sb strings.Builder
	if err := w.Yago.WriteNT(&sb); err != nil {
		b.Fatal(err)
	}
	data := sb.String()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadKB("bench", strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batch alignment: sequential vs parallel over shared caches ---

func benchBatchRelations(b *testing.B) []string {
	return world(b).Report.YagoRelations
}

// Baseline for the batch benchmarks: every relation aligned one after
// another against undecorated endpoints (Parallelism = 1).
func BenchmarkAlignRelationsSequential(b *testing.B) {
	w := world(b)
	rels := benchBatchRelations(b)
	cfg := core.UBSConfig()
	cfg.Parallelism = 1
	for i := 0; i < b.N; i++ {
		k := endpoint.NewLocal(w.Yago, 1)
		kp := endpoint.NewLocal(w.Dbp, 2)
		a := core.New(k, kp, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
		if _, err := a.AlignRelations(rels); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(k.Stats().Queries+kp.Stats().Queries), "queries/op")
		}
	}
}

// The tentpole configuration: relations aligned concurrently over
// shared Caching endpoints. Identical output, fewer
// endpoint queries (reported as queries/op), less wall clock.
func BenchmarkAlignRelationsParallelShared(b *testing.B) {
	w := world(b)
	rels := benchBatchRelations(b)
	cfg := core.UBSConfig()
	cfg.Parallelism = 0 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		k := endpoint.NewLocal(w.Yago, 1)
		kp := endpoint.NewLocal(w.Dbp, 2)
		qk := endpoint.NewCaching(k, 0)
		qkp := endpoint.NewCaching(kp, 0)
		a := core.New(qk, qkp, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
		if _, err := a.AlignRelations(rels); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(k.Stats().Queries+kp.Stats().Queries), "queries/op")
		}
	}
}

// One relation, endpoint decorators only (no batch): measures the
// decorator overhead on a cold cache.
func BenchmarkAlignRelationDecorated(b *testing.B) {
	w := world(b)
	cfg := core.UBSConfig()
	for i := 0; i < b.N; i++ {
		qk := endpoint.NewCaching(endpoint.NewLocal(w.Yago, 1), 0)
		qkp := endpoint.NewCaching(endpoint.NewLocal(w.Dbp, 2), 0)
		a := core.New(qk, qkp, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
		if _, err := a.AlignRelation("http://yago-knowledge.org/resource/directedBy"); err != nil {
			b.Fatal(err)
		}
	}
}

// The caching decorator on a warm cache: repeated identical queries.
func BenchmarkCachingEndpointHit(b *testing.B) {
	w := world(b)
	ep := endpoint.NewCaching(endpoint.NewLocal(w.Yago, 1), 0)
	q := `SELECT ?x ?y WHERE { ?x <http://yago-knowledge.org/resource/wasBornIn> ?y } LIMIT 20`
	if _, err := ep.SelectCtx(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ep.SelectCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}
