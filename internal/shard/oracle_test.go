package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// The differential oracle: a Group over k subject-hash shards must
// answer byte-identically to a Local endpoint over the unsharded KB —
// Select, Ask, prepared execution and streaming, ORDER BY RAND() LIMIT
// probes included — for every shard count.

var oracleShardCounts = []int{1, 2, 3, 7}

func renderResult(res *sparql.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Vars, ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for _, t := range row {
			sb.WriteString(t.String())
			sb.WriteByte('\t')
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "truncated=%v", res.Truncated)
	return sb.String()
}

func drainStream(t *testing.T, rows endpoint.Rows) *sparql.Result {
	t.Helper()
	defer rows.Close()
	res := &sparql.Result{Vars: rows.Vars()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	res.Truncated = rows.Truncated()
	return res
}

// sampleFact returns one (s, o) entity pair of rel from the endpoint.
func sampleFact(t *testing.T, ep endpoint.Endpoint, rel string) (string, string) {
	t.Helper()
	res, err := ep.SelectCtx(context.Background(), fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 1", rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatalf("relation %s has no facts", rel)
	}
	return res.Rows[0][0].Value, res.Rows[0][1].Value
}

// entityRelations picks two relations with entity objects and facts.
func entityRelations(t *testing.T, w *synth.World) (string, string) {
	t.Helper()
	k := w.Yago
	k.Freeze()
	var rels []string
	for _, p := range k.Relations() {
		iri := k.Term(p).Value
		n := 0
		entity := true
		k.EachFactOf(p, func(s, o kb.TermID) bool {
			n++
			if k.Term(o).IsLiteral() {
				entity = false
			}
			return n < 5 && entity
		})
		if n >= 3 && entity {
			rels = append(rels, iri)
		}
		if len(rels) == 2 {
			return rels[0], rels[1]
		}
	}
	t.Fatalf("world has fewer than two entity relations (found %d)", len(rels))
	return "", ""
}

func oracleQueries(rel, rel2, s, o string) (selects, asks []string) {
	selects = []string{
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y }", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 4", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 0", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 4 OFFSET 3", rel),
		fmt.Sprintf("SELECT DISTINCT ?x WHERE { ?x <%s> ?y }", rel),
		fmt.Sprintf("SELECT DISTINCT ?x WHERE { ?x <%s> ?y } LIMIT 3 OFFSET 1", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (?x != ?y) }", rel),
		fmt.Sprintf("SELECT ?x ?y ?z WHERE { ?x <%s> ?y . ?x <%s> ?z }", rel, rel2),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER NOT EXISTS { ?x <%s> ?y } }", rel, rel2),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 5", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 200", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND()", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 3 OFFSET 2", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY ?y LIMIT 6", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY DESC(?x) ?y", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY STRLEN(STR(?y)) ?x LIMIT 6", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY DESC(LCASE(STR(?y))) ?x", rel),
		fmt.Sprintf(`SELECT ?x ?y1 ?y2 WHERE {
  ?x <%s> ?y1 .
  ?x <%s> ?y2 .
  FILTER NOT EXISTS { ?x <%s> ?y2 }
} ORDER BY RAND() LIMIT 4`, rel, rel2, rel),
		fmt.Sprintf("SELECT ?p WHERE { <%s> ?p <%s> }", s, o),
		fmt.Sprintf("SELECT ?p ?v WHERE { <%s> ?p ?v . FILTER ISLITERAL(?v) }", s),
		fmt.Sprintf("SELECT ?y WHERE { <%s> <%s> ?y }", s, rel),
		fmt.Sprintf("SELECT ?y WHERE { <http://nowhere/entity> <%s> ?y }", rel),
	}
	asks = []string{
		fmt.Sprintf("ASK { <%s> <%s> <%s> }", s, rel, o),
		fmt.Sprintf("ASK { <%s> <%s> <%s> }", s, rel2, o),
		fmt.Sprintf("ASK { ?x <%s> ?y }", rel),
		"ASK { ?x <http://nowhere/rel> ?y }",
	}
	return selects, asks
}

// statsDelta is what a call cost, from the statistics around it.
func statsDelta(after, before endpoint.Stats) endpoint.Stats {
	return endpoint.Stats{
		Queries:     after.Queries - before.Queries,
		Rows:        after.Rows - before.Rows,
		Truncations: after.Truncations - before.Truncations,
		Denied:      after.Denied - before.Denied,
	}
}

func TestGroupTextOracle(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	rel, rel2 := entityRelations(t, w)
	const seed = 7
	local := endpoint.NewLocal(w.Yago, seed)
	s, o := sampleFact(t, local, rel)
	selects, asks := oracleQueries(rel, rel2, s, o)

	for _, k := range oracleShardCounts {
		g := Partitioned(w.Yago, k, seed)
		for _, q := range selects {
			want, err := local.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("local %q: %v", q, err)
			}
			before := g.Stats()
			got, err := g.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, q, err)
			}
			textCost := statsDelta(g.Stats(), before)
			if renderResult(got) != renderResult(want) {
				t.Errorf("k=%d Select diverges for %q:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, q, renderResult(got), renderResult(want))
			}
			// The same text as a zero-parameter template: drained and
			// streamed, it is the same answer, and drained, the same cost
			// (an ASK's is a race: its fan-out stops at the first true).
			pq, err := g.Prepare(q)
			if err != nil {
				t.Fatalf("k=%d Prepare(%q): %v", k, q, err)
			}
			before = g.Stats()
			got, err = pq.SelectCtx(context.Background())
			if err != nil {
				t.Fatalf("k=%d prepared %q: %v", k, q, err)
			}
			if c := statsDelta(g.Stats(), before); c != textCost {
				t.Errorf("k=%d %q costs %+v prepared, %+v as a text", k, q, c, textCost)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("k=%d prepared Select diverges for %q:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, q, renderResult(got), renderResult(want))
			}
			rows, err := pq.Stream(context.Background())
			if err != nil {
				t.Fatalf("k=%d Stream %q: %v", k, q, err)
			}
			if gotS := drainStream(t, rows); renderResult(gotS) != renderResult(want) {
				t.Errorf("k=%d Stream diverges for %q:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, q, renderResult(gotS), renderResult(want))
			}
		}
		for _, q := range asks {
			want, err := local.AskCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("local %q: %v", q, err)
			}
			got, err := g.AskCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, q, err)
			}
			if got != want {
				t.Errorf("k=%d Ask(%q) = %v, want %v", k, q, got, want)
			}
			pq, err := g.Prepare(q)
			if err != nil {
				t.Fatalf("k=%d Prepare(%q): %v", k, q, err)
			}
			if got, err := pq.AskCtx(context.Background()); err != nil || got != want {
				t.Errorf("k=%d prepared Ask(%q) = %v, %v, want %v", k, q, got, err, want)
			}
		}
	}
}

func TestGroupPreparedOracle(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	rel, rel2 := entityRelations(t, w)
	const seed = 11
	local := endpoint.NewLocal(w.Yago, seed)
	s, o := sampleFact(t, local, rel)

	const (
		tmplSample  = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
		tmplObjects = "SELECT ?y WHERE { $x $r ?y }"
		tmplPreds   = "SELECT ?p WHERE { $x ?p $y }"
		tmplOverlap = `SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`
	)
	type probe struct {
		tmpl   string
		params []string
		args   []sparql.Arg
	}
	probes := []probe{
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IntArg(5)}},
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IntArg(0)}},
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel2), sparql.IntArg(300)}},
		{tmplObjects, []string{"x", "r"}, []sparql.Arg{sparql.IRIArg(s), sparql.IRIArg(rel)}},
		{tmplPreds, []string{"x", "y"}, []sparql.Arg{sparql.IRIArg(s), sparql.IRIArg(o)}},
		{tmplOverlap, []string{"a", "b", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IRIArg(rel2), sparql.IntArg(6)}},
	}

	for _, k := range oracleShardCounts {
		g := Partitioned(w.Yago, k, seed)
		for pi, pr := range probes {
			lp, err := local.Prepare(pr.tmpl, pr.params...)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := g.Prepare(pr.tmpl, pr.params...)
			if err != nil {
				t.Fatalf("k=%d probe %d Prepare: %v", k, pi, err)
			}
			want, err := lp.SelectCtx(context.Background(), pr.args...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gp.SelectCtx(context.Background(), pr.args...)
			if err != nil {
				t.Fatalf("k=%d probe %d Select: %v", k, pi, err)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("k=%d probe %d Select diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, pi, renderResult(got), renderResult(want))
			}

			// Streaming must drain to the same bytes...
			lr, err := lp.Stream(context.Background(), pr.args...)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := gp.Stream(context.Background(), pr.args...)
			if err != nil {
				t.Fatalf("k=%d probe %d Stream: %v", k, pi, err)
			}
			wantS, gotS := drainStream(t, lr), drainStream(t, gr)
			if renderResult(gotS) != renderResult(wantS) {
				t.Errorf("k=%d probe %d Stream diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, pi, renderResult(gotS), renderResult(wantS))
			}

			// ...and an early-closed stream must yield a prefix of it.
			gr2, err := gp.Stream(context.Background(), pr.args...)
			if err != nil {
				t.Fatal(err)
			}
			var prefix [][]string
			for i := 0; i < 2 && gr2.Next(); i++ {
				var row []string
				for _, tm := range gr2.Row() {
					row = append(row, tm.String())
				}
				prefix = append(prefix, row)
			}
			gr2.Close()
			for i, row := range prefix {
				for j, cell := range row {
					if cell != wantS.Rows[i][j].String() {
						t.Errorf("k=%d probe %d early-close prefix row %d differs", k, pi, i)
					}
				}
			}
		}
	}
}

// One shard empty, one holding every match: the merge must behave
// identically to the unsharded endpoint, and the empty shard must not
// contribute (or block) anything.
func TestGroupEmptyShardOracle(t *testing.T) {
	const n = 2
	// Pick subjects that all hash to shard 0 of a 2-way partition.
	var subjects []string
	for i := 0; len(subjects) < 6; i++ {
		s := fmt.Sprintf("http://x/subject-%d", i)
		if kb.SubjectShard(rdf.NewIRI(s), n) == 0 {
			subjects = append(subjects, s)
		}
	}
	build := func() *kb.KB {
		k := kb.New("lopsided")
		for i, s := range subjects {
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i))
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i+1))
		}
		return k
	}
	const seed = 3
	local := endpoint.NewLocal(build(), seed)
	g := Partitioned(build(), n, seed)
	if sh := g.Shards()[1].(*endpoint.Local); sh.KB().Size() != 0 {
		t.Fatalf("shard 1 should be empty, holds %d facts", sh.KB().Size())
	}
	queries := []string{
		"SELECT ?x ?y WHERE { ?x <http://x/p> ?y }",
		"SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 3",
		"SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y } LIMIT 2",
	}
	for _, q := range queries {
		want, err := local.SelectCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.SelectCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if renderResult(got) != renderResult(want) {
			t.Errorf("empty-shard Select diverges for %q:\n%s\nvs\n%s", q, renderResult(got), renderResult(want))
		}
	}
	ok, err := g.AskCtx(context.Background(), "ASK { ?x <http://x/p> ?y }")
	if err != nil || !ok {
		t.Fatalf("Ask over lopsided shards = %v, %v", ok, err)
	}
}

// Queries outside the federation contract are rejected, not answered
// wrongly.
func TestGroupRejectsNonDecomposable(t *testing.T) {
	k := kb.New("nd")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	g := Partitioned(k, 2, 1)
	for _, q := range []string{
		"SELECT ?x ?z WHERE { ?x <http://x/p> ?y . ?y <http://x/p> ?z }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (RAND() < 0.5) }",
		"SELECT ?y WHERE { ?x <http://x/p> ?y } ORDER BY ?y",
		"ASK { }",
	} {
		if _, err := g.SelectCtx(context.Background(), q); err == nil {
			if _, err := g.AskCtx(context.Background(), q); err == nil {
				t.Errorf("query %q was accepted", q)
			}
		} else if !errors.Is(err, ErrNotDecomposable) {
			t.Errorf("query %q: error %v is not ErrNotDecomposable", q, err)
		}
		if _, err := g.Prepare(q); err == nil {
			t.Errorf("Prepare(%q) was accepted", q)
		}
	}
}

// countingShard counts the Prepare calls that reach a shard.
type countingShard struct {
	endpoint.Endpoint
	prepares int
}

func (c *countingShard) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	c.prepares++
	return c.Endpoint.Prepare(template, params...)
}

// The text path's plan cache: bounded, shared with parameterless
// Prepare, never holding an error, and preparing a constant-subject
// text on its one shard only.
func TestGroupTextPlanCache(t *testing.T) {
	ctx := context.Background()
	const n, seed = 3, 1
	k := kb.New("plans")
	for i := 0; i < maxCachedPlans+1; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%03d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	parts := kb.Partition(k, n)
	shards := make([]*countingShard, n)
	eps := make([]endpoint.Endpoint, n)
	for i, p := range parts {
		shards[i] = &countingShard{Endpoint: endpoint.NewLocal(p, seed)}
		eps[i] = shards[i]
	}
	g, err := NewGroup("plans", seed, eps)
	if err != nil {
		t.Fatal(err)
	}
	cached := func() int {
		g.mu.Lock()
		defer g.mu.Unlock()
		return len(g.plans)
	}
	prepares := func() (total int, per []int) {
		for _, sh := range shards {
			total += sh.prepares
			per = append(per, sh.prepares)
		}
		return total, per
	}

	// (iii) A constant-subject text prepares on the subject's shard only,
	// and a repeat prepares nowhere.
	routed := "SELECT ?y WHERE { <http://x/s007> <http://x/p> ?y }"
	home := kb.SubjectShard(rdf.NewIRI("http://x/s007"), n)
	for round := 0; round < 2; round++ {
		res, err := g.SelectCtx(ctx, routed)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Value != "http://x/o7" {
			t.Fatalf("round %d: routed text answered %v, %v", round, res, err)
		}
		if total, per := prepares(); total != 1 || per[home] != 1 {
			t.Fatalf("round %d: Prepare calls per shard = %v, want one on shard %d", round, per, home)
		}
	}

	// (iv) Prepare without parameters and the text methods share the entry.
	pq, err := g.Prepare(routed)
	if err != nil {
		t.Fatal(err)
	}
	if total, _ := prepares(); total != 1 || cached() != 1 {
		t.Fatalf("Prepare(text) after SelectCtx(text): %d shard prepares, %d cached plans, want 1 and 1", total, cached())
	}
	if planned, _ := g.planFor(routed); pq != endpoint.PreparedQuery(planned) {
		t.Fatal("Prepare(text) returned a handle other than the cached plan")
	}

	// (v) Wrong-form calls keep their error text, cached plan or not.
	ask := "ASK { <http://x/s007> <http://x/p> <http://x/o7> }"
	for round := 0; round < 2; round++ {
		if _, err := g.AskCtx(ctx, routed); err == nil || err.Error() != "shard: Ask needs an ASK query" {
			t.Fatalf("AskCtx on a SELECT text: %v", err)
		}
		if _, err := g.SelectCtx(ctx, ask); err == nil || err.Error() != "shard: Select needs a SELECT query" {
			t.Fatalf("SelectCtx on an ASK text: %v", err)
		}
	}

	// (ii) Errors are returned on every call and never cached.
	before := cached()
	for round := 0; round < 2; round++ {
		if _, err := g.SelectCtx(ctx, "SELECT ?x WHERE {"); err == nil {
			t.Fatal("parse error was accepted")
		}
		_, err := g.SelectCtx(ctx, "SELECT ?x ?z WHERE { ?x <http://x/p> ?y . ?y <http://x/p> ?z }")
		if !errors.Is(err, ErrNotDecomposable) {
			t.Fatalf("cross-subject join: %v, want ErrNotDecomposable", err)
		}
	}
	if cached() != before {
		t.Fatalf("failed texts grew the plan cache from %d to %d", before, cached())
	}

	// (i) More distinct texts than the bound: the cache stays bounded and
	// every answer is still right.
	for i := 0; i < maxCachedPlans+1; i++ {
		q := fmt.Sprintf("SELECT ?y WHERE { <http://x/s%03d> <http://x/p> ?y }", i)
		res, err := g.SelectCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("http://x/o%d", i); len(res.Rows) != 1 || res.Rows[0][0].Value != want {
			t.Fatalf("text %d answered %v, want %s", i, res.Rows, want)
		}
		if c := cached(); c > maxCachedPlans {
			t.Fatalf("plan cache holds %d entries after %d texts, bound is %d", c, i+1, maxCachedPlans)
		}
	}
}
