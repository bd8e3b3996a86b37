package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// The cluster differential oracle: a Group over HTTP replica endpoints
// must answer byte-identically to a Local over the unsharded KB —
// Select, Ask, prepared execution and streams, ORDER BY RAND() LIMIT
// probes — at every shard × replica combination, with replicas killed
// mid-suite (failover), and with hedging racing replicas per call.

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
		row := append([]rdf.Term(nil), rows.Row()...)
		res.Rows = append(res.Rows, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	res.Truncated = rows.Truncated()
	return res
}

// testWorld builds the shared oracle fixture: a tiny synthetic KB, the
// unsharded reference endpoint, and two entity relations to probe.
func testWorld(t *testing.T, seed int64) (*synth.World, *endpoint.Local, string, string) {
	t.Helper()
	w := synth.Generate(synth.TinySpec())
	w.Yago.Freeze()
	rel, rel2 := entityRelations(t, w.Yago)
	return w, endpoint.NewLocal(w.Yago, seed), rel, rel2
}

// entityRelations names the first two relations of k that hold at least
// three facts and whose first objects are entities.
func entityRelations(tb testing.TB, k *kb.KB) (string, string) {
	tb.Helper()
	var rels []string
	for _, p := range k.Relations() {
		n, entity := 0, true
		k.EachFactOf(p, func(s, o kb.TermID) bool {
			n++
			if k.Term(o).IsLiteral() {
				entity = false
			}
			return n < 5 && entity
		})
		if n >= 3 && entity {
			rels = append(rels, k.Term(p).Value)
		}
		if len(rels) == 2 {
			return rels[0], rels[1]
		}
	}
	tb.Fatalf("world has fewer than two entity relations")
	return "", ""
}

// testCluster is an in-process HTTP cluster: n shards × m replicas,
// every replica a real httptest server over a Local of its shard.
type testCluster struct {
	group   *Group
	servers [][]*httptest.Server // [shard][replica]
	killed  [][]*killable        // their handlers, [shard][replica]
	locals  []*endpoint.Local    // every replica's backing endpoint
}

// killable serves its replica until killed, and then answers every
// request 503 — a dead replica whose port stays bound until the test
// ends, so that no other test's server can take it over meanwhile.
type killable struct {
	http.Handler
	dead atomic.Bool
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		http.Error(w, "replica killed", http.StatusServiceUnavailable)
		return
	}
	k.Handler.ServeHTTP(w, r)
}

func newTestCluster(t *testing.T, src *kb.KB, nShards, nReplicas int, seed int64, opt Options) *testCluster {
	t.Helper()
	parts := kb.Partition(src, nShards)
	shards := make([][]endpoint.Endpoint, nShards)
	servers := make([][]*httptest.Server, nShards)
	killed := make([][]*killable, nShards)
	var locals []*endpoint.Local
	for i, part := range parts {
		for j := 0; j < nReplicas; j++ {
			local := endpoint.NewLocal(part, seed)
			locals = append(locals, local)
			h := &killable{Handler: endpoint.NewServer(local)}
			srv := httptest.NewServer(h)
			servers[i] = append(servers[i], srv)
			killed[i] = append(killed[i], h)
			shards[i] = append(shards[i], endpoint.NewClient(part.Name(), srv.URL, nil))
		}
	}
	g, err := NewGroup(src.Name(), seed, shards, opt)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{group: g, servers: servers, killed: killed, locals: locals}
	t.Cleanup(tc.close)
	return tc
}

// cost sums what reached every replica's KB.
func (tc *testCluster) cost() endpoint.Stats {
	var sum endpoint.Stats
	for _, l := range tc.locals {
		s := l.Stats()
		sum.Queries += s.Queries
		sum.Rows += s.Rows
		sum.Truncations += s.Truncations
		sum.Denied += s.Denied
	}
	return sum
}

func (tc *testCluster) close() {
	tc.group.Close()
	for _, reps := range tc.servers {
		for _, srv := range reps {
			srv.Close()
		}
	}
}

// killReplica kills one replica: its server answers 503 from then on,
// a retriable error the set fails over and counts against the replica.
// The server keeps its port until the test's cleanup closes it.
func (tc *testCluster) killReplica(shard, replica int) {
	tc.killed[shard][replica].dead.Store(true)
}

func oracleSelects(rel, rel2 string) []string {
	return []string{
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y }", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 4", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 4 OFFSET 3", rel),
		fmt.Sprintf("SELECT DISTINCT ?x WHERE { ?x <%s> ?y } LIMIT 3 OFFSET 1", rel),
		fmt.Sprintf("SELECT ?x ?y ?z WHERE { ?x <%s> ?y . ?x <%s> ?z }", rel, rel2),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 5", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 3 OFFSET 2", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND()", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY ?y LIMIT 6", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY DESC(?x) ?y", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY STRLEN(STR(?y)) ?x LIMIT 6", rel),
		fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY DESC(LCASE(STR(?y))) ?x", rel),
	}
}

func oracleAsks(rel string) []string {
	return []string{
		fmt.Sprintf("ASK { ?x <%s> ?y }", rel),
		"ASK { ?x <http://nowhere/rel> ?y }",
	}
}

// textAnswer runs a text on ep through SelectCtx or AskCtx, by its form,
// or prepared as the template without parameters it is, and renders the
// answer.
func textAnswer(ctx context.Context, ep endpoint.Endpoint, text string, prepared bool) (string, error) {
	var pq endpoint.PreparedQuery
	var err error
	if prepared {
		if pq, err = ep.Prepare(text); err != nil {
			return "", err
		}
	}
	if sparql.FormOf(text) == sparql.AskForm {
		var ok bool
		if prepared {
			ok, err = pq.AskCtx(ctx)
		} else {
			ok, err = ep.AskCtx(ctx, text)
		}
		return fmt.Sprint(ok), err
	}
	var res *sparql.Result
	if prepared {
		res, err = pq.SelectCtx(ctx)
	} else {
		res, err = ep.SelectCtx(ctx, text)
	}
	if err != nil {
		return "", err
	}
	return renderResult(res), nil
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

// runOracle diffs ep — a cluster, a replica set — against the unsharded
// reference on the whole query battery, a routed SELECT and ASK among
// it, every text two ways: through SelectCtx or AskCtx, and prepared as
// the template without parameters it is. When cost reports what reached
// the KBs behind ep (nil where hedging races replicas), a SELECT must
// cost the same either way; a fanned-out ASK stops its shards at the
// first true, so what it costs is a race.
func runOracle(t *testing.T, label string, local *endpoint.Local, ep endpoint.Endpoint, cost func() endpoint.Stats, rel, rel2 string) {
	t.Helper()
	ctx := context.Background()
	fact, err := local.SelectCtx(ctx, fmt.Sprintf("SELECT ?x WHERE { ?x <%s> ?y } LIMIT 1", rel))
	if err != nil || len(fact.Rows) != 1 {
		t.Fatalf("%s: no fact of %s: %v", label, rel, err)
	}
	s := fact.Rows[0][0].Value
	texts := append(oracleSelects(rel, rel2), fmt.Sprintf("SELECT ?p ?y WHERE { <%s> ?p ?y }", s))
	texts = append(append(texts, oracleAsks(rel)...), fmt.Sprintf("ASK { <%s> <%s> ?y }", s, rel))
	for _, q := range texts {
		want, err := textAnswer(ctx, local, q, false)
		if err != nil {
			t.Fatalf("%s: local %q: %v", label, q, err)
		}
		var costs [2]endpoint.Stats
		for i, prepared := range []bool{false, true} {
			var before endpoint.Stats
			if cost != nil {
				before = cost()
			}
			got, err := textAnswer(ctx, ep, q, prepared)
			if err != nil {
				t.Fatalf("%s: %q (prepared %v): %v", label, q, prepared, err)
			}
			if got != want {
				t.Errorf("%s: %q (prepared %v) diverges:\n--- cluster ---\n%s\n--- local ---\n%s", label, q, prepared, got, want)
			}
			if cost != nil {
				costs[i] = statsDelta(cost(), before)
			}
		}
		if costs[0] != costs[1] && sparql.FormOf(q) == sparql.SelectForm {
			t.Errorf("%s: %q costs %+v as a text, %+v prepared", label, q, costs[0], costs[1])
		}
	}
}

// runBatchOracle diffs grouped execution: the routed object and
// predicate probes of twelve facts of rel (and a subject that has none),
// and groups that fan every execution out — sample probes, an unordered
// merge, an ordered one on a deterministic key — each as one drained
// group (selectGroup) and as one StreamBatch, against the unsharded
// reference probe by probe.
func runBatchOracle(t *testing.T, label string, local *endpoint.Local, g *Group, rel string) {
	t.Helper()
	facts, err := local.SelectCtx(context.Background(), fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 12", rel))
	if err != nil {
		t.Fatal(err)
	}
	objects, preds := [][]sparql.Arg{{sparql.IRIArg("http://nowhere/s"), sparql.IRIArg(rel)}}, [][]sparql.Arg{}
	for _, row := range facts.Rows {
		objects = append(objects, []sparql.Arg{sparql.TermArg(row[0]), sparql.IRIArg(rel)})
		preds = append(preds, []sparql.Arg{sparql.TermArg(row[0]), sparql.TermArg(row[1])})
	}
	for gi, group := range []struct {
		tmpl    string
		params  []string
		argSets [][]sparql.Arg
	}{
		{"SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}, objects},
		{"SELECT ?p WHERE { $x ?p $y }", []string{"x", "y"}, preds},
		{"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", []string{"r", "n"},
			[][]sparql.Arg{{sparql.IRIArg(rel), sparql.IntArg(5)}, {sparql.IRIArg(rel), sparql.IntArg(2)}, {sparql.IRIArg(rel), sparql.IntArg(300)}}},
		{"SELECT ?x ?y WHERE { ?x $r ?y } LIMIT $n", []string{"r", "n"},
			[][]sparql.Arg{{sparql.IRIArg(rel), sparql.IntArg(4)}, {sparql.IRIArg("http://nowhere/rel"), sparql.IntArg(4)}, {sparql.IRIArg(rel), sparql.IntArg(100)}}},
		{"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?y LIMIT $n", []string{"r", "n"},
			[][]sparql.Arg{{sparql.IRIArg(rel), sparql.IntArg(6)}, {sparql.IRIArg(rel), sparql.IntArg(3)}}},
		{"SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}, nil},
	} {
		lp, err := local.Prepare(group.tmpl, group.params...)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := g.Prepare(group.tmpl, group.params...)
		if err != nil {
			t.Fatalf("%s: group %d Prepare: %v", label, gi, err)
		}
		got, err := selectGroup(context.Background(), gp, group.argSets)
		if err != nil || len(got) != len(group.argSets) {
			t.Fatalf("%s: group %d drained: %d results for %d tuples, %v", label, gi, len(got), len(group.argSets), err)
		}
		for i, args := range group.argSets {
			want, err := lp.SelectCtx(context.Background(), args...)
			if err != nil {
				t.Fatal(err)
			}
			if renderResult(got[i]) != renderResult(want) {
				t.Errorf("%s: group %d tuple %d diverges:\n--- cluster ---\n%s\n--- local ---\n%s",
					label, gi, i, renderResult(got[i]), renderResult(want))
			}
		}
		// The same group as streams, drained and left after a row.
		for _, take := range []int{-1, 1} {
			err := eachSet(context.Background(), gp, group.argSets, func(i int, set endpoint.Rows) error {
				rows, err := lp.Stream(context.Background(), group.argSets[i]...)
				if err != nil {
					return err
				}
				defer rows.Close()
				if got, want := takeStream(set, take), takeStream(rows, take); got != want {
					t.Errorf("%s: group %d set %d (take %d) diverges:\n--- cluster ---\n%s\n--- local ---\n%s", label, gi, i, take, got, want)
				}
				return rows.Err()
			})
			if err != nil {
				t.Fatalf("%s: group %d StreamBatch: %v", label, gi, err)
			}
		}
	}
}

// takeStream renders up to take rows of a stream (all, and its
// truncation flag, when take < 0).
func takeStream(rows endpoint.Rows, take int) string {
	res := &sparql.Result{Vars: rows.Vars()}
	for (take < 0 || len(res.Rows) < take) && rows.Next() {
		res.Rows = append(res.Rows, append([]rdf.Term(nil), rows.Row()...))
	}
	res.Truncated = take < 0 && rows.Truncated()
	return renderResult(res)
}

// runPreparedOracle diffs prepared execution, streaming and grouped
// execution.
func runPreparedOracle(t *testing.T, label string, local *endpoint.Local, g *Group, rel, rel2 string) {
	t.Helper()
	runBatchOracle(t, label, local, g, rel)
	const (
		tmplSample  = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
		tmplOrdered = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?y LIMIT $n"
	)
	probes := []struct {
		tmpl   string
		params []string
		args   []sparql.Arg
	}{
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IntArg(5)}},
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel2), sparql.IntArg(300)}},
		{tmplOrdered, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IntArg(6)}},
	}
	for pi, pr := range probes {
		lp, err := local.Prepare(pr.tmpl, pr.params...)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := g.Prepare(pr.tmpl, pr.params...)
		if err != nil {
			t.Fatalf("%s: probe %d Prepare: %v", label, pi, err)
		}
		want, err := lp.SelectCtx(context.Background(), pr.args...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gp.SelectCtx(context.Background(), pr.args...)
		if err != nil {
			t.Fatalf("%s: probe %d Select: %v", label, pi, err)
		}
		if renderResult(got) != renderResult(want) {
			t.Errorf("%s: probe %d prepared Select diverges:\n--- cluster ---\n%s\n--- local ---\n%s",
				label, pi, renderResult(got), renderResult(want))
		}
		gr, err := gp.Stream(context.Background(), pr.args...)
		if err != nil {
			t.Fatalf("%s: probe %d Stream: %v", label, pi, err)
		}
		gotS := drainStream(t, gr)
		if renderResult(gotS) != renderResult(want) {
			t.Errorf("%s: probe %d prepared Stream diverges:\n--- cluster ---\n%s\n--- local ---\n%s",
				label, pi, renderResult(gotS), renderResult(want))
		}
	}
}

func TestClusterOracle(t *testing.T) {
	const seed = 17
	w, local, rel, rel2 := testWorld(t, seed)
	for _, nShards := range []int{1, 2, 3} {
		for _, nReplicas := range []int{1, 2} {
			label := fmt.Sprintf("shards=%d/replicas=%d", nShards, nReplicas)
			t.Run(label, func(t *testing.T) {
				tc := newTestCluster(t, w.Yago, nShards, nReplicas, seed, Options{})
				runOracle(t, label, local, tc.group, tc.cost, rel, rel2)
				runPreparedOracle(t, label, local, tc.group, rel, rel2)
			})
		}
	}
	// One replica set of HTTP clients over the unsharded KB: the text
	// calls Replicas hedges are its prepared ones.
	t.Run("replicas", func(t *testing.T) {
		tc := newTestCluster(t, w.Yago, 1, 2, seed, Options{})
		runOracle(t, "replicas", local, tc.group.ReplicaSets()[0], tc.cost, rel, rel2)
	})
}

// TestClusterFailover kills one replica per shard mid-suite: the
// battery before the kill and the battery after must both be
// byte-identical to the reference — the surviving replicas answer.
func TestClusterFailover(t *testing.T) {
	const seed = 23
	w, local, rel, rel2 := testWorld(t, seed)
	tc := newTestCluster(t, w.Yago, 3, 2, seed, Options{})
	runOracle(t, "pre-kill", local, tc.group, nil, rel, rel2)
	for shard := 0; shard < 3; shard++ {
		tc.killReplica(shard, 0)
	}
	runOracle(t, "post-kill", local, tc.group, nil, rel, rel2)
	runPreparedOracle(t, "post-kill", local, tc.group, rel, rel2)
	// The dead replicas took strikes; after FailAfter of them the sets
	// mark them ejected and stop paying the failed first attempt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ejected := 0
		for _, set := range tc.group.ReplicaSets() {
			for _, st := range set.Status() {
				if !st.Healthy {
					ejected++
				}
			}
		}
		if ejected == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replicas not ejected after traffic strikes (ejected=%d)", ejected)
		}
		runOracle(t, "strike-traffic", local, tc.group, nil, rel, rel2)
	}
	// The ejected ones are the killed ones, each with its failed attempts
	// on record.
	for shard, set := range tc.group.ReplicaSets() {
		if st := set.Status(); st[0].Healthy || st[0].Errors == 0 || !st[1].Healthy {
			t.Errorf("shard %d: replica status %+v, want replica 0 ejected with failed attempts, replica 1 healthy", shard, st)
		}
	}
}

// TestClusterHedged runs the oracle with hedging aggressive enough to
// fire constantly: racing two replicas must never change a byte,
// because answers are replica-independent.
func TestClusterHedged(t *testing.T) {
	const seed = 29
	w, local, rel, rel2 := testWorld(t, seed)
	for _, nShards := range []int{1, 2, 3} {
		for _, nReplicas := range []int{1, 2} {
			label := fmt.Sprintf("hedged/shards=%d/replicas=%d", nShards, nReplicas)
			tc := newTestCluster(t, w.Yago, nShards, nReplicas, seed, Options{HedgeDelay: time.Microsecond})
			runOracle(t, label, local, tc.group, nil, rel, rel2)
			runPreparedOracle(t, label, local, tc.group, rel, rel2)
			if nReplicas > 1 {
				// One replica per shard dies mid-suite: open groups fail
				// over like single streams.
				for shard := 0; shard < nShards; shard++ {
					tc.killReplica(shard, 0)
				}
				runPreparedOracle(t, label+"/post-kill", local, tc.group, rel, rel2)
			}
		}
	}
}

// TestClusterContextCancellation is the query surface's cancellation
// contract (the endpoint package runs the same table over its stacks)
// over a 3 × 2 cluster: a call under a cancelled context returns
// promptly with context.Canceled, hands back no Rows to close, reaches
// no replica's KB — and costs no replica its health, because the
// caller's cancellation says nothing about the replica.
func TestClusterContextCancellation(t *testing.T) {
	const seed = 31
	w, _, rel, _ := testWorld(t, seed)
	tc := newTestCluster(t, w.Yago, 3, 2, seed, Options{FailAfter: 1})
	g := tc.group
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
	r := sparql.IRIArg(rel)
	for _, op := range []struct {
		name string
		run  func() (endpoint.Rows, error)
	}{
		{"text SelectCtx", func() (endpoint.Rows, error) {
			_, err := g.SelectCtx(ctx, fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y }", rel))
			return nil, err
		}},
		{"text AskCtx", func() (endpoint.Rows, error) {
			_, err := g.AskCtx(ctx, fmt.Sprintf("ASK { ?x <%s> ?y }", rel))
			return nil, err
		}},
		{"replica set text SelectCtx", func() (endpoint.Rows, error) {
			_, err := g.ReplicaSets()[0].SelectCtx(ctx, fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y }", rel))
			return nil, err
		}},
		{"replica set text AskCtx", func() (endpoint.Rows, error) {
			_, err := g.ReplicaSets()[0].AskCtx(ctx, fmt.Sprintf("ASK { ?x <%s> ?y }", rel))
			return nil, err
		}},
		{"prepared SelectCtx", func() (endpoint.Rows, error) { _, err := sel.SelectCtx(ctx, r); return nil, err }},
		{"prepared AskCtx", func() (endpoint.Rows, error) { _, err := ask.AskCtx(ctx, r); return nil, err }},
		{"prepared Stream", func() (endpoint.Rows, error) { return sel.Stream(ctx, r) }},
		{"prepared SelectBatch, routed", func() (endpoint.Rows, error) {
			_, err := selectGroup(ctx, routed, [][]sparql.Arg{
				{sparql.IRIArg("http://x/s1"), r}, {sparql.IRIArg("http://x/s2"), r}, {sparql.IRIArg("http://x/s3"), r}})
			return nil, err
		}},
		{"prepared SelectBatch, fanned out", func() (endpoint.Rows, error) {
			_, err := selectGroup(ctx, sel, [][]sparql.Arg{{r}, {r}})
			return nil, err
		}},
		{"prepared StreamBatch, routed", func() (endpoint.Rows, error) {
			return streamBatchRows(ctx, routed, [][]sparql.Arg{{sparql.IRIArg("http://x/s1"), r}, {sparql.IRIArg("http://x/s2"), r}})
		}},
		{"prepared StreamBatch, fanned out", func() (endpoint.Rows, error) {
			return streamBatchRows(ctx, sel, [][]sparql.Arg{{r}, {r}})
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
	for i, local := range tc.locals {
		if q := local.Stats().Queries; q != 0 {
			t.Errorf("replica %d: %d queries reached its KB", i, q)
		}
	}
	for _, set := range g.ReplicaSets() {
		for _, st := range set.Status() {
			if !st.Healthy {
				t.Errorf("replica %s ejected by its caller's cancellation: %+v", st.Name, st)
			}
		}
	}
}

// flakyEndpoint forwards to an inner endpoint until tripped, then
// fails everything with a retriable 503.
type flakyEndpoint struct {
	inner endpoint.Endpoint
	fail  func() bool
}

func (f *flakyEndpoint) err() error {
	return &endpoint.StatusError{URL: "flaky", Code: 503, Snippet: "injected outage"}
}

func (f *flakyEndpoint) Name() string { return f.inner.Name() }

func (f *flakyEndpoint) SelectCtx(ctx context.Context, q string) (*sparql.Result, error) {
	if f.fail() {
		return nil, f.err()
	}
	return f.inner.SelectCtx(ctx, q)
}

func (f *flakyEndpoint) AskCtx(ctx context.Context, q string) (bool, error) {
	if f.fail() {
		return false, f.err()
	}
	return f.inner.AskCtx(ctx, q)
}

func (f *flakyEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	return endpoint.NewTextPrepared(f, tmpl, params...)
}

// TestHealthEjectionReadmission drives the active prober: a replica
// that starts failing probes is ejected after FailAfter consecutive
// failures and re-admitted on the first success.
func TestHealthEjectionReadmission(t *testing.T) {
	const seed = 31
	w, _, rel, _ := testWorld(t, seed)
	parts := kb.Partition(w.Yago, 1)
	var failing atomic.Bool
	flaky := &flakyEndpoint{
		inner: endpoint.NewLocal(parts[0], seed),
		fail:  failing.Load,
	}
	good := endpoint.NewLocal(parts[0], seed)
	set, err := NewReplicas([]endpoint.Endpoint{flaky, good}, Options{
		ProbeInterval: 5 * time.Millisecond,
		FailAfter:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	waitHealth := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if set.Status()[0].Healthy == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica 0 never became %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	failing.Store(true)
	waitHealth(false, "ejected")
	// Ejected replica: traffic routes around it and still succeeds.
	if _, err := set.SelectCtx(context.Background(), fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } LIMIT 2", rel)); err != nil {
		t.Fatalf("query during outage: %v", err)
	}
	failing.Store(false)
	waitHealth(true, "re-admitted")
}

// TestReplicaSetNameStability: the set answers under the first
// replica's name regardless of which replica serves — the federation's
// coalescing and routing key must not flap with failovers.
func TestReplicaSetNameStability(t *testing.T) {
	k := kb.New("stable/shard-0-of-1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	a := endpoint.NewLocal(k, 1)
	b := endpoint.NewLocal(k, 1)
	set, err := NewReplicas([]endpoint.Endpoint{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Name() != "stable/shard-0-of-1" {
		t.Fatalf("set name = %q", set.Name())
	}
}

// TestReplicaOrderIsAPermutation: the attempt order lists every replica
// exactly once while another goroutine flips one replica's health — a
// prober's recovery or a concurrent attempt's outcome. A health read per
// loop could drop the flipped replica or list it twice; with one replica
// a dropped one left nothing to attempt, and the set answered no result
// and no error. Run with -race.
func TestReplicaOrderIsAPermutation(t *testing.T) {
	k := kb.New("flip/shard-0-of-1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	for _, n := range []int{1, 3} {
		eps := make([]endpoint.Endpoint, n)
		for i := range eps {
			eps[i] = endpoint.NewLocal(k, 1)
		}
		set, err := NewReplicas(eps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		flipped := set.reps[n-1]
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				flipped.mu.Lock()
				flipped.healthy = !flipped.healthy
				flipped.mu.Unlock()
			}
		}()
		for i := 0; i < 100_000; i++ {
			order := set.order()
			seen := make(map[*replica]bool, n)
			for _, rep := range order {
				seen[rep] = true
			}
			if len(order) != n || len(seen) != n {
				close(stop)
				<-done
				t.Fatalf("%d replica(s), call %d: order lists %d replicas, %d distinct", n, i, len(order), len(seen))
			}
		}
		close(stop)
		<-done
		set.Close()
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
