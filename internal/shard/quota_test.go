package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// The restricted-group oracle: a row-capped Group must answer exactly
// like a row-capped unsharded Local — one cap for the whole answer
// (applied after ORDER BY, like the unsharded endpoint), not one per
// shard.
func TestGroupRowCapOracle(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	rel, _ := entityRelations(t, w)
	const seed, cap = 9, 7
	quota := endpoint.Quota{MaxRows: cap}
	local := endpoint.NewLocalRestricted(w.Yago, seed, quota)
	s, o := sampleFact(t, endpoint.NewLocal(w.Yago, seed), rel)

	queries := []string{
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y }", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND()", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 30", rel),
		fmt.Sprintf("SELECT ?p ?v WHERE { <%s> ?p ?v }", s),
		fmt.Sprintf("SELECT ?p WHERE { <%s> ?p <%s> }", s, o),
	}
	for _, k := range []int{2, 3} {
		g := PartitionedRestricted(w.Yago, k, seed, quota)
		for _, q := range queries {
			want, err := local.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, q, err)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("k=%d capped Select diverges for %q:\n--- sharded ---\n%s\n--- local ---\n%s",
					k, q, renderResult(got), renderResult(want))
			}
			if len(got.Rows) > cap {
				t.Errorf("k=%d %q returned %d rows over the %d-row cap", k, q, len(got.Rows), cap)
			}
		}
	}
}

// Routed streams respect the group row cap too.
func TestGroupRowCapRoutedStream(t *testing.T) {
	k := kb.New("capstream")
	for i := 0; i < 20; i++ {
		k.AddIRIs("http://x/s", "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	g := PartitionedRestricted(k, 2, 1, endpoint.Quota{MaxRows: 4})
	pq, err := g.Prepare("SELECT ?y WHERE { $x $r ?y }", "x", "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/s"), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n != 4 || !rows.Truncated() {
		t.Fatalf("routed capped stream: %d rows, truncated=%v; want 4, true", n, rows.Truncated())
	}
	rows.Close()
}

// The cancellation contract of the query surface (the endpoint package
// runs the same table over its stacks), over every fan-out path: a call
// under a cancelled context returns promptly with context.Canceled —
// never a clean partial result, a nil-row panic, or a definitive false
// ASK — hands back no Rows to close, and reaches no shard.
func TestGroupContextCancellation(t *testing.T) {
	k := kb.New("cancel")
	for i := 0; i < 30; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o")
	}
	g := Partitioned(k, 3, 1)
	sel, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	ask, err := g.Prepare("ASK { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	routed, err := g.Prepare("SELECT ?y WHERE { $x $r ?y }", "x", "r")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := sparql.IRIArg("http://x/p")
	for _, op := range []struct {
		name string
		run  func() (endpoint.Rows, error)
	}{
		{"text SelectCtx", func() (endpoint.Rows, error) {
			_, err := g.SelectCtx(ctx, "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
			return nil, err
		}},
		{"text AskCtx", func() (endpoint.Rows, error) {
			_, err := g.AskCtx(ctx, "ASK { ?x <http://x/p> ?y }")
			return nil, err
		}},
		{"prepared SelectCtx", func() (endpoint.Rows, error) { _, err := sel.SelectCtx(ctx, p); return nil, err }},
		{"prepared AskCtx", func() (endpoint.Rows, error) { _, err := ask.AskCtx(ctx, p); return nil, err }},
		{"prepared Stream", func() (endpoint.Rows, error) { return sel.Stream(ctx, p) }},
		{"prepared SelectBatch, routed", func() (endpoint.Rows, error) {
			_, err := endpoint.SelectBatch(ctx, routed, [][]sparql.Arg{
				{sparql.IRIArg("http://x/s1"), p}, {sparql.IRIArg("http://x/s2"), p}, {sparql.IRIArg("http://x/s3"), p}})
			return nil, err
		}},
		{"prepared SelectBatch, fanned out", func() (endpoint.Rows, error) {
			_, err := endpoint.SelectBatch(ctx, sel, [][]sparql.Arg{{p}, {p}})
			return nil, err
		}},
		{"prepared StreamBatch, routed", func() (endpoint.Rows, error) {
			return streamBatchRows(ctx, routed, [][]sparql.Arg{{sparql.IRIArg("http://x/s1"), p}, {sparql.IRIArg("http://x/s2"), p}})
		}},
		{"prepared StreamBatch, fanned out", func() (endpoint.Rows, error) {
			return streamBatchRows(ctx, sel, [][]sparql.Arg{{p}, {p}})
		}},
	} {
		start := time.Now()
		rows, err := op.run()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", op.name, err)
		}
		if rows != nil {
			rows.Close()
			t.Errorf("%s: a failed call returned Rows", op.name)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: took %v to notice a context cancelled beforehand", op.name, d)
		}
	}
	if q := g.Stats().Queries; q != 0 {
		t.Errorf("%d queries reached the shards", q)
	}
}

// TestUnrunnableQueryChargesNothing: a text the parser refuses and a
// call of the wrong form are refused before anything is charged — at a
// Local, through its decorators and across a federation alike — so under
// a one-query budget the next valid query still answers.
func TestUnrunnableQueryChargesNothing(t *testing.T) {
	ctx := context.Background()
	quota := endpoint.Quota{MaxQueries: 1}
	world := func() *kb.KB {
		k := kb.New("unrunnable")
		for i := 0; i < 9; i++ {
			k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", "http://x/o")
		}
		return k
	}
	const (
		sel = "SELECT ?y WHERE { <http://x/s4> <http://x/p> ?y }"
		ask = "ASK { ?x <http://x/p> ?y }"
	)
	for _, st := range []struct {
		name string
		ep   interface {
			endpoint.Endpoint
			endpoint.StatsReporter
		}
	}{
		{"Local", endpoint.NewLocalRestricted(world(), 1, quota)},
		{"Admission(Local)", endpoint.NewAdmission(endpoint.NewLocalRestricted(world(), 1, quota), endpoint.Limits{MaxInFlight: 1})},
		{"Coalescing(Caching(Local))", endpoint.NewCoalescing(endpoint.NewCaching(endpoint.NewLocalRestricted(world(), 1, quota), 0))},
		{"PartitionedRestricted(3)", PartitionedRestricted(world(), 3, 1, quota)},
	} {
		for _, bad := range []struct {
			name string
			run  func() error
		}{
			{"SelectCtx of a text that does not parse", func() error { _, err := st.ep.SelectCtx(ctx, "SELEC ?x"); return err }},
			{"AskCtx of a text that does not parse", func() error { _, err := st.ep.AskCtx(ctx, "ASK {"); return err }},
			{"SelectCtx of an ASK", func() error { _, err := st.ep.SelectCtx(ctx, ask); return err }},
			{"AskCtx of a SELECT", func() error { _, err := st.ep.AskCtx(ctx, sel); return err }},
			{"Stream of an ASK", func() error {
				pq, err := st.ep.Prepare(ask)
				if err != nil {
					return err
				}
				rows, err := pq.Stream(ctx)
				if rows != nil {
					rows.Close()
				}
				return err
			}},
		} {
			if err := bad.run(); err == nil {
				t.Errorf("%s: %s answered", st.name, bad.name)
			}
		}
		if got := st.ep.Stats(); got != (endpoint.Stats{}) {
			t.Errorf("%s: queries that cannot run cost %+v", st.name, got)
		}
		if res, err := st.ep.SelectCtx(ctx, sel); err != nil || len(res.Rows) != 1 {
			t.Errorf("%s: the one query the budget allows: %v, %v", st.name, res, err)
		}
	}
}

// Hidden-subject unordered queries concatenate: the bag of rows is the
// whole KB's, deterministically ordered by shard — and the moment a
// LIMIT or OFFSET would turn that reordering into a different row set,
// the query is rejected instead.
func TestGroupConcatBagSemantics(t *testing.T) {
	k := kb.New("concat")
	for i := 0; i < 25; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	local := endpoint.NewLocal(k, 1)
	g := Partitioned(k, 3, 1)

	const q = "SELECT ?y WHERE { ?x <http://x/p> ?y }" // subject not projected
	want, err := local.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	bag := func(res *sparql.Result) []string {
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = rowKey(row)
		}
		sort.Strings(out)
		return out
	}
	wb, gb := bag(want), bag(got)
	if len(wb) != len(gb) {
		t.Fatalf("concat bag sizes differ: %d vs %d", len(gb), len(wb))
	}
	for i := range wb {
		if wb[i] != gb[i] {
			t.Fatalf("concat bags differ at %d: %q vs %q", i, gb[i], wb[i])
		}
	}

	for _, rejected := range []string{
		"SELECT ?y WHERE { ?x <http://x/p> ?y } LIMIT 5",
		"SELECT ?y WHERE { ?x <http://x/p> ?y } OFFSET 2",
	} {
		if _, err := g.SelectCtx(context.Background(), rejected); !errors.Is(err, ErrNotDecomposable) {
			t.Errorf("%q: err = %v, want ErrNotDecomposable", rejected, err)
		}
	}
}

// stubShard answers every query it is handed the same way, whatever the
// text: "fail" with ErrQuotaExceeded at once, "block" not until its
// context ends, "true" and "false" as an ASK answer (and no rows as a
// SELECT).
type stubShard string

func (s stubShard) Name() string { return "stub-" + string(s) }
func (s stubShard) SelectCtx(ctx context.Context, _ string) (*sparql.Result, error) {
	return stubPrepared{s}.SelectCtx(ctx)
}
func (s stubShard) AskCtx(ctx context.Context, _ string) (bool, error) {
	return stubPrepared{s}.AskCtx(ctx)
}
func (s stubShard) Prepare(string, ...string) (endpoint.PreparedQuery, error) {
	return stubPrepared{s}, nil
}

// stubPrepared is a stubShard's handle for every template.
type stubPrepared struct{ s stubShard }

func (p stubPrepared) err(ctx context.Context) error {
	switch p.s {
	case "fail":
		return endpoint.ErrQuotaExceeded
	case "block":
		<-ctx.Done()
		return ctx.Err()
	}
	return nil
}

func (p stubPrepared) SelectCtx(ctx context.Context, _ ...sparql.Arg) (*sparql.Result, error) {
	if err := p.err(ctx); err != nil {
		return nil, err
	}
	return &sparql.Result{Vars: []string{"x", "y"}}, nil
}

func (p stubPrepared) AskCtx(ctx context.Context, _ ...sparql.Arg) (bool, error) {
	err := p.err(ctx)
	return err == nil && p.s == "true", err
}

func (p stubPrepared) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	res, err := p.SelectCtx(ctx, args...)
	if err != nil {
		return nil, err
	}
	return endpoint.ReplayRows(res), nil
}

// What a fan-out answers when its shards disagree. A SELECT reports the
// shard that failed, never the cancellation that failure caused in a
// sibling still at work, and returns as soon as it has failed. An ASK
// answers true when any shard does, whatever another shard's error;
// with no true answer a shard's error surfaces instead of a clean false.
func TestFanoutFailurePolicy(t *testing.T) {
	for _, tc := range []struct {
		query   string
		shards  []stubShard
		wantErr error
		wantAsk bool
	}{
		{"SELECT ?x ?y WHERE { ?x <http://x/p> ?y }", []stubShard{"fail", "block"}, endpoint.ErrQuotaExceeded, false},
		{"SELECT ?x ?y WHERE { ?x <http://x/p> ?y }", []stubShard{"block", "fail"}, endpoint.ErrQuotaExceeded, false},
		{"SELECT ?x ?y WHERE { ?x <http://x/p> ?y }", []stubShard{"block", "false", "fail"}, endpoint.ErrQuotaExceeded, false},
		{"ASK { ?x <http://x/p> ?y }", []stubShard{"fail", "true"}, nil, true},
		{"ASK { ?x <http://x/p> ?y }", []stubShard{"true", "fail"}, nil, true},
		{"ASK { ?x <http://x/p> ?y }", []stubShard{"false", "fail", "false"}, endpoint.ErrQuotaExceeded, false},
		{"ASK { ?x <http://x/p> ?y }", []stubShard{"fail", "false"}, endpoint.ErrQuotaExceeded, false},
	} {
		eps := make([]endpoint.Endpoint, len(tc.shards))
		for i, s := range tc.shards {
			eps[i] = s
		}
		g, err := NewGroup("stub", 1, eps)
		if err != nil {
			t.Fatal(err)
		}
		// The deadline only keeps a broken fan-out from hanging the test.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		start := time.Now()
		var ok bool
		if strings.HasPrefix(tc.query, "ASK") {
			ok, err = g.AskCtx(ctx, tc.query)
		} else {
			_, err = g.SelectCtx(ctx, tc.query)
		}
		cancel()
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s over %v: took %v", tc.query, tc.shards, d)
		}
		if ok != tc.wantAsk || !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
			t.Errorf("%s over %v = %v, %v; want %v, %v", tc.query, tc.shards, ok, err, tc.wantAsk, tc.wantErr)
		}
	}
}

// streamBatchRows is endpoint.StreamBatch for a cancellation table: a
// failed open hands back no Rows, not a nil RowSets inside one.
func streamBatchRows(ctx context.Context, pq endpoint.PreparedQuery, argSets [][]sparql.Arg) (endpoint.Rows, error) {
	sets, err := endpoint.StreamBatch(ctx, pq, argSets)
	if err != nil {
		return nil, err
	}
	return sets, nil
}
