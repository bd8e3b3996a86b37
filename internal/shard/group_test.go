package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// The full pipeline differential: an aligner speaking to sharded
// endpoints must produce exactly the alignments of one speaking to
// unsharded endpoints, because every probe it issues is byte-identical.
func TestAlignerShardedOracle(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	links := sampling.LinkView{Links: w.Links, KIsA: true}
	cfg := core.UBSConfig()
	cfg.CheckEquivalence = true

	k := endpoint.NewLocal(w.Yago, 7)
	kp := endpoint.NewLocal(w.Dbp, 8)
	baseline := core.New(k, kp, links, cfg)

	heads := w.Report.YagoRelations
	if len(heads) > 4 {
		heads = heads[:4]
	}
	want := make(map[string][]core.Alignment, len(heads))
	for _, head := range heads {
		als, err := baseline.AlignRelation(head)
		if err != nil {
			t.Fatal(err)
		}
		want[head] = als
	}

	for _, n := range []int{2, 3} {
		gk := Partitioned(w.Yago, n, 7)
		gkp := Partitioned(w.Dbp, n, 8)
		sharded := core.New(gk, gkp, links, cfg)
		for _, head := range heads {
			got, err := sharded.AlignRelation(head)
			if err != nil {
				t.Fatalf("n=%d aligning %s: %v", n, head, err)
			}
			if !reflect.DeepEqual(got, want[head]) {
				t.Errorf("n=%d alignments for %s diverge from unsharded run:\ngot  %+v\nwant %+v",
					n, head, got, want[head])
			}
		}
	}
}

// Truncated aggregation: if any shard's stream was cut by its row cap,
// the merged result reports Truncated.
func TestGroupTruncatedAggregation(t *testing.T) {
	k := kb.New("trunc")
	for i := 0; i < 40; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	g := PartitionedRestricted(k, 3, 1, endpoint.Quota{MaxRows: 5})
	res, err := g.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("merged result not flagged Truncated though every shard was capped")
	}

	// Streams aggregate the flag too.
	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if !rows.Truncated() {
		t.Fatal("merged stream not flagged Truncated")
	}
	rows.Close()

	// An uncapped group stays untruncated.
	g2 := Partitioned(k, 3, 1)
	res2, err := g2.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Truncated {
		t.Fatal("uncapped merged result flagged Truncated")
	}
}

// Quota exhaustion on a shard surfaces as ErrQuotaExceeded from the
// merge, never as a silently clean (empty or shortened) result.
func TestGroupQuotaSurfaces(t *testing.T) {
	k := kb.New("quota")
	for i := 0; i < 10; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o")
	}
	g := PartitionedRestricted(k, 2, 1, endpoint.Quota{MaxQueries: 1})
	if _, err := g.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }"); err != nil {
		t.Fatalf("first fan-out should fit the budget: %v", err)
	}
	_, err := g.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("exhausted quota surfaced as %v, want ErrQuotaExceeded", err)
	}
	if _, err := g.AskCtx(context.Background(), "ASK { ?x <http://x/nothere> ?y }"); !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("exhausted quota on ASK surfaced as %v, want ErrQuotaExceeded", err)
	}
}

// errRows is a shard stream that fails mid-flight — the way a remote
// shard's quota or connection loss manifests inside a merge.
type errRows struct {
	rows [][]rdf.Term
	err  error
	i    int
	row  []rdf.Term
}

func (r *errRows) Vars() []string  { return []string{"x"} }
func (r *errRows) Row() []rdf.Term { return r.row }
func (r *errRows) Truncated() bool { return false }
func (r *errRows) Close()          { r.i = len(r.rows) }
func (r *errRows) Err() error {
	if r.i >= len(r.rows) {
		return r.err
	}
	return nil
}
func (r *errRows) Next() bool {
	if r.i >= len(r.rows) {
		return false
	}
	r.row = r.rows[r.i]
	r.i++
	return true
}

func TestMergeSurfacesMidStreamError(t *testing.T) {
	rowOf := func(s string) []rdf.Term { return []rdf.Term{rdf.NewIRI(s)} }
	for _, mk := range []func([]rowsSource) puller{
		func(s []rowsSource) puller { return newConcatPuller(s) },
		func(s []rowsSource) puller { return newSubjectPuller(s, 0) },
	} {
		sources := []rowsSource{
			&errRows{rows: [][]rdf.Term{rowOf("http://x/a")}, err: endpoint.ErrQuotaExceeded},
			endpoint.ReplayRows(&sparql.Result{Vars: []string{"x"}, Rows: [][]rdf.Term{rowOf("http://x/b")}}),
		}
		merged := newFanoutRows([]string{"x"}, mk(sources), false, 0, -1, 0)
		for merged.Next() {
		}
		if !errors.Is(merged.Err(), endpoint.ErrQuotaExceeded) {
			t.Fatalf("mid-stream quota error swallowed: Err() = %v", merged.Err())
		}
	}
}

// LIMIT pushdown stops losing shards early: after the merged limit is
// satisfied, no shard has produced more than the pushed-down bound, and
// the remaining shard streams are closed.
func TestGroupLimitPushdownStopsShards(t *testing.T) {
	k := kb.New("push")
	for i := 0; i < 200; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%03d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	g := Partitioned(k, 2, 1)
	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit ignored: got %d rows", len(res.Rows))
	}
	total := g.Stats().Rows
	if total > 6 {
		t.Fatalf("shards produced %d rows for a LIMIT-3 fan-out over 2 shards; pushdown bound is 6", total)
	}
}

// The merged stream closes its shard streams when the caller closes
// early; the shards stop producing (pulled-rows-only accounting).
func TestGroupStreamEarlyClose(t *testing.T) {
	k := kb.New("early")
	for i := 0; i < 500; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%03d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	g := Partitioned(k, 3, 1)
	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && rows.Next(); i++ {
	}
	rows.Close()
	if produced := g.Stats().Rows; produced > 10 {
		t.Fatalf("early-closed merge left shards producing: %d rows pulled", produced)
	}
	// Closing twice is fine; Err stays nil after a clean close.
	rows.Close()
	if rows.Err() != nil {
		t.Fatalf("closed stream reports error: %v", rows.Err())
	}
}

// Decorator composition: Caching wraps a Group like any endpoint.
func TestGroupUnderDecorators(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	rel, _ := entityRelations(t, w)
	const seed = 5
	local := endpoint.NewLocal(w.Yago, seed)
	g := Partitioned(w.Yago, 3, seed)
	deco := endpoint.NewCaching(g, 0)

	q := fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 5", rel)
	want, err := local.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // second round hits the cache
		got, err := deco.SelectCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if renderResult(got) != renderResult(want) {
			t.Fatalf("decorated group diverges on round %d", i)
		}
	}

	pq, err := deco.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pq.SelectCtx(context.Background(), sparql.IRIArg(rel), sparql.IntArg(5))
	if err != nil {
		t.Fatal(err)
	}
	if renderResult(got) != renderResult(want) {
		t.Fatal("decorated prepared group diverges")
	}
}

// Group-level statistics aggregate the shards'.
func TestGroupStatsAggregate(t *testing.T) {
	k := kb.New("stats")
	for i := 0; i < 12; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o")
	}
	g := Partitioned(k, 3, 1)
	if _, err := g.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }"); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Queries != 3 {
		t.Fatalf("fan-out charged %d shard queries, want 3", st.Queries)
	}
	if st.Rows != 12 {
		t.Fatalf("shards produced %d rows, want 12", st.Rows)
	}
	g.ResetStats()
	if st := g.Stats(); st.Queries != 0 || st.Rows != 0 {
		t.Fatalf("ResetStats left %+v", st)
	}
}
