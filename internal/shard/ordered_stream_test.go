package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// ordered_stream_test.go pins the streaming ordered merge (orderedRows):
// OFFSET windows across the whole span, mid-stream shard errors, stream
// close at every stage, early close of losing shards, and the compact
// binary dedup key's agreement with the engine's TermID-based DISTINCT.

// spanKB builds n subjects with one fact each under http://x/p.
func spanKB(n int) *kb.KB {
	k := kb.New("span")
	for i := 0; i < n; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%03d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	return k
}

// The ordered merge must reproduce the unsharded endpoint for OFFSET
// values spanning the result: 0, 1, mid-result, and beyond the end —
// for RAND-keyed and subject-keyed orderings, drained and streamed.
func TestOrderedMergeOffsetSpans(t *testing.T) {
	const facts, seed = 30, 13
	local := endpoint.NewLocal(spanKB(facts), seed)
	orderings := []string{"ORDER BY RAND()", "ORDER BY ?x"}
	offsets := []int{0, 1, facts / 2, facts + 70}
	limits := []int{5, facts + 10}

	for _, shards := range oracleShardCounts {
		g := Partitioned(spanKB(facts), shards, seed)
		for _, ord := range orderings {
			for _, off := range offsets {
				tmpl := fmt.Sprintf("SELECT ?x ?y WHERE { ?x $r ?y } %s LIMIT $n OFFSET %d", ord, off)
				lp, err := local.Prepare(tmpl, "r", "n")
				if err != nil {
					t.Fatal(err)
				}
				gp, err := g.Prepare(tmpl, "r", "n")
				if err != nil {
					t.Fatalf("k=%d %q: %v", shards, tmpl, err)
				}
				for _, n := range limits {
					args := []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(n)}
					want, err := lp.SelectCtx(context.Background(), args...)
					if err != nil {
						t.Fatal(err)
					}
					got, err := gp.SelectCtx(context.Background(), args...)
					if err != nil {
						t.Fatalf("k=%d %q n=%d: %v", shards, tmpl, n, err)
					}
					if renderResult(got) != renderResult(want) {
						t.Errorf("k=%d %q n=%d Select diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
							shards, tmpl, n, renderResult(got), renderResult(want))
					}
					gr, err := gp.Stream(context.Background(), args...)
					if err != nil {
						t.Fatal(err)
					}
					if gotS := drainStream(t, gr); renderResult(gotS) != renderResult(want) {
						t.Errorf("k=%d %q n=%d Stream diverges from Select", shards, tmpl, n)
					}
				}
			}
		}
	}
}

// closeRows counts Close calls around an inner stream, so tests can
// assert that the merge released every shard stream.
type closeRows struct {
	endpoint.Rows
	closed bool
}

func (c *closeRows) Close() {
	c.closed = true
	c.Rows.Close()
}

func trackedSources(inner ...endpoint.Rows) ([]rowsSource, []*closeRows) {
	sources := make([]rowsSource, len(inner))
	trackers := make([]*closeRows, len(inner))
	for i, r := range inner {
		trackers[i] = &closeRows{Rows: r}
		sources[i] = trackers[i]
	}
	return sources, trackers
}

func assertAllClosed(t *testing.T, trackers []*closeRows) {
	t.Helper()
	for i, tr := range trackers {
		if !tr.closed {
			t.Errorf("shard stream %d left open", i)
		}
	}
}

// A shard stream failing mid-merge must surface its error from the
// ordered merge — on the bounded and the unbounded path alike — and
// every shard stream must be closed afterwards.
func TestOrderedMergeMidStreamError(t *testing.T) {
	rowOf := func(s string) []rdf.Term { return []rdf.Term{rdf.NewIRI(s)} }
	for _, limit := range []int{-1, 2} {
		sources, trackers := trackedSources(
			&errRows{rows: [][]rdf.Term{rowOf("http://x/a")}, err: endpoint.ErrQuotaExceeded},
			endpoint.ReplayRows(&sparql.Result{Vars: []string{"x"}, Rows: [][]rdf.Term{rowOf("http://x/b"), rowOf("http://x/d")}}),
		)
		spec := orderedMergeSpec{
			col:        0,
			keys:       []sparql.ShardOrderKey{{Rand: true}},
			orderTotal: true,
			limit:      limit,
			seed:       1,
			text:       "q",
		}
		rows := newOrderedRows([]string{"x"}, sources, spec, false)
		for rows.Next() {
		}
		if !errors.Is(rows.Err(), endpoint.ErrQuotaExceeded) {
			t.Fatalf("limit=%d: mid-stream quota error swallowed: Err() = %v", limit, rows.Err())
		}
		assertAllClosed(t, trackers)
		rows.Close() // idempotent after an error stop
	}

	// The drained form propagates the same error as a call failure.
	sources, trackers := trackedSources(
		&errRows{rows: [][]rdf.Term{rowOf("http://x/a")}, err: endpoint.ErrQuotaExceeded},
	)
	if _, err := drainRows(newOrderedRows([]string{"x"}, sources, orderedMergeSpec{col: 0, limit: -1}, true)); !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("drained merge returned %v, want ErrQuotaExceeded", err)
	}
	assertAllClosed(t, trackers)
}

// Closing a streaming ordered merge — before the first row and halfway
// through emission — must close every shard stream and stay clean on a
// second Close.
func TestOrderedStreamCloseReleasesShards(t *testing.T) {
	mkResult := func(subjects ...string) *sparql.Result {
		res := &sparql.Result{Vars: []string{"x"}}
		for _, s := range subjects {
			res.Rows = append(res.Rows, []rdf.Term{rdf.NewIRI(s)})
		}
		return res
	}
	spec := orderedMergeSpec{
		col:        0,
		keys:       []sparql.ShardOrderKey{{Rand: true}},
		orderTotal: true,
		limit:      -1,
		seed:       5,
		text:       "q",
	}

	// Close before the first Next: the enumeration never ran, the shard
	// streams are still open and must be released.
	sources, trackers := trackedSources(
		endpoint.ReplayRows(mkResult("http://x/a", "http://x/c")),
		endpoint.ReplayRows(mkResult("http://x/b")),
	)
	rows := newOrderedRows([]string{"x"}, sources, spec, false)
	rows.Close()
	assertAllClosed(t, trackers)
	if rows.Next() {
		t.Fatal("closed merge still yields rows")
	}

	// Close halfway through emission.
	sources, trackers = trackedSources(
		endpoint.ReplayRows(mkResult("http://x/a", "http://x/c")),
		endpoint.ReplayRows(mkResult("http://x/b", "http://x/d")),
	)
	rows = newOrderedRows([]string{"x"}, sources, spec, false)
	if !rows.Next() {
		t.Fatalf("merge yielded no rows: %v", rows.Err())
	}
	rows.Close()
	assertAllClosed(t, trackers)
	rows.Close()
	if rows.Err() != nil {
		t.Fatalf("closed merge reports error: %v", rows.Err())
	}

	// The same through the group seam, under the race detector in CI.
	const facts, seed = 120, 3
	g := Partitioned(spanKB(facts), 3, seed)
	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(20))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2 && gr.Next(); i++ {
	}
	gr.Close()
	gr.Close()
	if gr.Err() != nil {
		t.Fatalf("closed group stream reports error: %v", gr.Err())
	}
}

// With an ascending subject as the only ORDER BY key, the bounded merge
// proves losing shards irrelevant and closes them early: the shards
// stop producing long before their enumerations end, and the result is
// still byte-identical to the unsharded endpoint.
func TestOrderedMergeEarlyClosesLosingShards(t *testing.T) {
	const facts, seed, limit = 600, 17, 5
	local := endpoint.NewLocal(spanKB(facts), seed)
	lp, err := local.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?x LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	args := []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(limit)}
	want, err := lp.SelectCtx(context.Background(), args...)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 7} {
		g := Partitioned(spanKB(facts), shards, seed)
		gp, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?x LIMIT $n", "r", "n")
		if err != nil {
			t.Fatal(err)
		}
		got, err := gp.SelectCtx(context.Background(), args...)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(got) != renderResult(want) {
			t.Fatalf("k=%d subject-ordered probe diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
				shards, renderResult(got), renderResult(want))
		}
		// Every shard contributes its stream heads plus the rows pulled
		// until the top-k filled and the early close fired — far below
		// the full 600-row enumeration the drain-based merge paid for.
		budget := 3*limit + 4*shards
		if pulled := g.Stats().Rows; pulled > budget {
			t.Errorf("k=%d early close ineffective: %d rows pulled from shards, want <= %d", shards, pulled, budget)
		}
	}
}

// The compact binary dedup key must be injective on term tuples — in
// particular across the concatenation and kind/lang/datatype ambiguities
// a naive string join would collide on.
func TestRowKeyInjective(t *testing.T) {
	iri := rdf.NewIRI
	lit := rdf.NewLiteral
	rows := [][]rdf.Term{
		{iri("http://x/ab"), iri("http://x/c")},
		{iri("http://x/a"), iri("http://x/bc")},
		{lit("a")},
		{iri("a")},
		{rdf.NewLangLiteral("a", "x")},
		{rdf.NewTypedLiteral("a", "x")},
		{lit("a"), lit("")},
		{lit(""), lit("a")},
	}
	seen := map[string]int{}
	for i, row := range rows {
		key := rowKey(row)
		if j, dup := seen[key]; dup {
			t.Errorf("rows %d and %d collide on key %q", j, i, key)
		}
		seen[key] = i
	}
	a := []rdf.Term{iri("http://x/a"), lit("v")}
	b := []rdf.Term{iri("http://x/a"), lit("v")}
	if rowKey(a) != rowKey(b) {
		t.Error("equal rows disagree on key")
	}
	if !bytes.Equal(appendRowKey(nil, a), appendRowKey([]byte{}, a)) {
		t.Error("appendRowKey depends on the destination buffer")
	}
}

// Merge-point DISTINCT (binary content keys) must agree with the
// engine's TermID dedup, including RDF 1.1 canonicalization: an
// xsd:string literal and the plain literal with the same lexical form
// are one term, even when they enter through different shards.
func TestGroupDistinctDedupMatchesEngine(t *testing.T) {
	build := func() *kb.KB {
		k := kb.New("dedup")
		p := rdf.NewIRI("http://x/p")
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s1"), p, rdf.NewTypedLiteral("v", rdf.XSDString)))
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s2"), p, rdf.NewLiteral("v")))
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s3"), p, rdf.NewLangLiteral("v", "en")))
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s4"), p, rdf.NewLiteral("w")))
		k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s5"), p, rdf.NewTypedLiteral("w", "http://x/custom")))
		return k
	}
	const seed = 2
	local := endpoint.NewLocal(build(), seed)

	// Without the subject in the projection the merge concatenates shard
	// streams (row order is not reconstructable), so the agreement is on
	// the row set: "v" arrives from two shards — once interned from the
	// typed form, once from the plain — and must still collapse to one.
	setOf := func(res *sparql.Result) string {
		keys := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			keys[i] = rowKey(row)
		}
		sort.Strings(keys)
		return strings.Join(keys, "\x00")
	}
	const qSet = "SELECT DISTINCT ?y WHERE { ?x <http://x/p> ?y }"
	want, err := local.SelectCtx(context.Background(), qSet)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 4 {
		t.Fatalf("engine kept %d distinct objects, want 4", len(want.Rows))
	}
	for _, shards := range oracleShardCounts {
		g := Partitioned(build(), shards, seed)
		got, err := g.SelectCtx(context.Background(), qSet)
		if err != nil {
			t.Fatalf("k=%d %q: %v", shards, qSet, err)
		}
		if setOf(got) != setOf(want) {
			t.Errorf("k=%d DISTINCT row set diverges for %q:\n--- sharded ---\n%s\n--- local ---\n%s",
				shards, qSet, renderResult(got), renderResult(want))
		}

		// With the subject projected, the ordered merge must stay
		// byte-identical through the DISTINCT pipeline stage.
		const qOrd = "SELECT DISTINCT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 4"
		wantOrd, err := local.SelectCtx(context.Background(), qOrd)
		if err != nil {
			t.Fatal(err)
		}
		gotOrd, err := g.SelectCtx(context.Background(), qOrd)
		if err != nil {
			t.Fatalf("k=%d %q: %v", shards, qOrd, err)
		}
		if renderResult(gotOrd) != renderResult(wantOrd) {
			t.Errorf("k=%d ordered DISTINCT diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
				shards, renderResult(gotOrd), renderResult(wantOrd))
		}
	}
}

// The group row cap is decided per emission, after DISTINCT dedup: a
// merge whose cap is reached exactly when only duplicate rows remain
// must not flag truncation (no emittable row was cut), and one with
// more distinct rows pending must — exactly like the row-capped
// unsharded endpoint.
func TestGroupRowCapMidDistinctDedup(t *testing.T) {
	const subjects = 10
	build := func() *kb.KB {
		k := kb.New("capdedup")
		for i := 0; i < subjects; i++ {
			s := fmt.Sprintf("http://x/s%02d", i)
			// Two facts per subject: DISTINCT ?x sees every subject twice.
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%da", i))
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%db", i))
		}
		return k
	}
	const seed = 4
	queries := []string{
		"SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y }",
		"SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y } ORDER BY RAND()",
	}
	for _, cap := range []int{subjects, subjects / 2} {
		quota := endpoint.Quota{MaxRows: cap}
		local := endpoint.NewLocalRestricted(build(), seed, quota)
		for _, shards := range []int{2, 3} {
			g := PartitionedRestricted(build(), shards, seed, quota)
			for _, q := range queries {
				want, err := local.SelectCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := g.SelectCtx(context.Background(), q)
				if err != nil {
					t.Fatalf("k=%d cap=%d %q: %v", shards, cap, q, err)
				}
				if renderResult(got) != renderResult(want) {
					t.Errorf("k=%d cap=%d %q diverges:\n--- sharded ---\n%s\n--- local ---\n%s",
						shards, cap, q, renderResult(got), renderResult(want))
				}
				wantTrunc := cap < subjects
				if got.Truncated != wantTrunc {
					t.Errorf("k=%d cap=%d %q: Truncated=%v, want %v", shards, cap, q, got.Truncated, wantTrunc)
				}
			}
		}
	}
}
