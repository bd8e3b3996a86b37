package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// The aligner's group shapes (the endpoint package holds its own stacks
// to the same ones): three routed by their subject parameter, and the
// sample probe, which fans every execution out.
var batchTemplates = []struct {
	name, tmpl string
	params     []string
	args       func(i int) []sparql.Arg
}{
	{"objects", "SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/p")}
	}},
	{"predsBetween", "SELECT ?p WHERE { $x ?p $y }", []string{"x", "y"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/o0")}
	}},
	{"literalAttrs", "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }", []string{"x"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i))}
	}},
	{"sample", "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", []string{"r", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(1 + i%5)}
	}},
}

func batchSubject(i int) string { return fmt.Sprintf("http://x/s%03d", i) }

// batchKB holds 40 subjects; subject i has i%4 objects under p, one
// under q, and a literal name.
func batchKB() *kb.KB {
	k := kb.New("batch")
	for i := 0; i < 40; i++ {
		s := batchSubject(i)
		for j := 0; j < i%4; j++ {
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", j))
		}
		k.AddIRIs(s, "http://x/q", "http://x/o0")
		k.Add(rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI("http://x/name"), rdf.NewLiteral(fmt.Sprintf("subject %d", i))))
	}
	return k
}

// batchGroups are groups as subject indices; one past the KB's 40
// matches nothing.
var batchGroups = map[string][]int{
	"empty":      {},
	"one":        {5},
	"ten":        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	"duplicates": {3, 7, 3, 3, 7},
	"no rows":    {4, 1000, 8, 2},
	"all":        {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39},
}

// checkGroupBatch holds a federation to the SelectBatch contract: a
// group answers what its tuples answer one by one — which is what the
// unsharded Local answers — and costs its shards the same queries and
// rows.
func checkGroupBatch(t *testing.T, build func(t *testing.T) (endpoint.Endpoint, func() endpoint.Stats), quota endpoint.Quota) {
	t.Helper()
	for _, tm := range batchTemplates {
		for group, subjects := range batchGroups {
			t.Run(tm.name+"/"+group, func(t *testing.T) {
				argSets := make([][]sparql.Arg, len(subjects))
				for i, s := range subjects {
					argSets[i] = tm.args(s)
				}
				grouped, groupedStats := build(t)
				single, singleStats := build(t)
				pg, err := grouped.Prepare(tm.tmpl, tm.params...)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := single.Prepare(tm.tmpl, tm.params...)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := endpoint.NewLocalRestricted(batchKB(), 7, quota).Prepare(tm.tmpl, tm.params...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := endpoint.SelectBatch(context.Background(), pg, argSets)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(argSets) {
					t.Fatalf("%d results for %d tuples", len(got), len(argSets))
				}
				for i, args := range argSets {
					want, err := ps.SelectCtx(context.Background(), args...)
					if err != nil {
						t.Fatal(err)
					}
					local, err := pl.SelectCtx(context.Background(), args...)
					if err != nil {
						t.Fatal(err)
					}
					if renderResult(got[i]) != renderResult(want) || renderResult(got[i]) != renderResult(local) {
						t.Fatalf("tuple %d: group answered\n%s\nsingle probe\n%s\nunsharded\n%s", i, renderResult(got[i]), renderResult(want), renderResult(local))
					}
				}
				if g, s := groupedStats(), singleStats(); g != s {
					t.Fatalf("shards after the group %+v, after the single probes %+v", g, s)
				}
			})
		}
	}
}

// TestGroupSelectBatch: the contract at every oracle shard count over
// in-process shards (which take their groups tuple by tuple), and under
// a group row cap.
func TestGroupSelectBatch(t *testing.T) {
	for _, k := range oracleShardCounts {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			checkGroupBatch(t, func(*testing.T) (endpoint.Endpoint, func() endpoint.Stats) {
				g := Partitioned(batchKB(), k, 7)
				return g, g.Stats
			}, endpoint.Quota{})
		})
	}
	t.Run("row cap", func(t *testing.T) {
		quota := endpoint.Quota{MaxRows: 2}
		checkGroupBatch(t, func(*testing.T) (endpoint.Endpoint, func() endpoint.Stats) {
			g := PartitionedRestricted(batchKB(), 3, 7, quota)
			return g, g.Stats
		}, quota)
	})
}

// httpShards serves the 3-way partition of batchKB over HTTP and
// federates the clients: shards that take a group as one request.
func httpShards(t *testing.T, quota endpoint.Quota) (g *Group, reqs *atomic.Int64, stats func() endpoint.Stats) {
	t.Helper()
	reqs = new(atomic.Int64)
	var eps, locals []endpoint.Endpoint
	for _, part := range kb.Partition(batchKB(), 3) {
		local := endpoint.NewLocalRestricted(part, 7, quota)
		locals = append(locals, local)
		h := endpoint.NewServer(local)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			reqs.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		eps = append(eps, endpoint.NewClient(part.Name(), srv.URL, srv.Client()))
	}
	g, err := NewGroup("batch", 7, eps)
	if err != nil {
		t.Fatal(err)
	}
	backing, err := NewGroup("backing", 7, locals) // for its Stats: the sum over the Locals
	if err != nil {
		t.Fatal(err)
	}
	return g, reqs, backing.Stats
}

// TestGroupSelectBatchOverHTTP: over shards that take groups of streams
// the contract holds as well, and a routed group costs one request per
// shard that has a tuple, whatever its size.
func TestGroupSelectBatchOverHTTP(t *testing.T) {
	checkGroupBatch(t, func(t *testing.T) (endpoint.Endpoint, func() endpoint.Stats) {
		g, _, stats := httpShards(t, endpoint.Quota{})
		return g, stats
	}, endpoint.Quota{})

	tm := batchTemplates[0]
	g, reqs, _ := httpShards(t, endpoint.Quota{})
	pq, err := g.Prepare(tm.tmpl, tm.params...)
	if err != nil {
		t.Fatal(err)
	}
	argSets := make([][]sparql.Arg, 30)
	shards := map[int]bool{}
	for i := range argSets {
		argSets[i] = tm.args(i)
		shards[kb.SubjectShard(rdf.NewIRI(batchSubject(i)), 3)] = true
	}
	if _, err := endpoint.SelectBatch(context.Background(), pq, argSets); err != nil {
		t.Fatal(err)
	}
	if got := int(reqs.Load()); got != len(shards) {
		t.Fatalf("%d requests for 30 tuples over %d shards", got, len(shards))
	}
}

// TestGroupSelectBatchFailures: a shard's quota error fails the group
// as it fails a single probe, and a tuple the template cannot take
// fails a group that groups — over HTTP shards — before any shard is
// asked. (An in-process group runs its tuples one after the other, up to
// the bad one.)
func TestGroupSelectBatchFailures(t *testing.T) {
	tm := batchTemplates[0]
	argSets := make([][]sparql.Arg, 12)
	for i := range argSets {
		argSets[i] = tm.args(i)
	}
	for name, g := range map[string]*Group{
		"in-process": PartitionedRestricted(batchKB(), 3, 7, endpoint.Quota{MaxQueries: 2}),
		"http":       func() *Group { g, _, _ := httpShards(t, endpoint.Quota{MaxQueries: 2}); return g }(),
	} {
		pq, err := g.Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := endpoint.SelectBatch(context.Background(), pq, argSets)
		if !errors.Is(err, endpoint.ErrQuotaExceeded) || res != nil {
			t.Errorf("%s: %v, %v; want ErrQuotaExceeded", name, res, err)
		}
	}

	g, _, stats := httpShards(t, endpoint.Quota{})
	pq, err := g.Prepare(tm.tmpl, tm.params...)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([][]sparql.Arg{}, argSets[:5]...), []sparql.Arg{sparql.IntArg(1), sparql.IRIArg("http://x/p")})
	if res, err := endpoint.SelectBatch(context.Background(), pq, bad); err == nil || res != nil {
		t.Errorf("a tuple of the wrong kind: %v, %v", res, err)
	}
	if q := stats().Queries; q != 0 {
		t.Errorf("%d queries ran for a group with a bad tuple", q)
	}
}

// TestSelectBatchRowsAreOwned guards the line between SelectBatch,
// whose rows the caller keeps, and EachSet, whose rows are borrowed: over
// a Local (which does not group), an in-process Group and a grouping
// HTTP Client, a group's results still equal per-tuple SelectCtx after
// further calls on the same handle — groups, borrowed and owned streams —
// have run.
func TestSelectBatchRowsAreOwned(t *testing.T) {
	srv := httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(batchKB(), 7)))
	defer srv.Close()
	for name, ep := range map[string]endpoint.Endpoint{
		"local":       endpoint.NewLocal(batchKB(), 7),
		"in-process":  Partitioned(batchKB(), 3, 7),
		"http client": endpoint.NewClient("batch", srv.URL, srv.Client()),
	} {
		for _, tm := range streamTemplates {
			pq, err := ep.Prepare(tm.tmpl, tm.params...)
			if err != nil {
				t.Fatal(err)
			}
			argSets := make([][]sparql.Arg, 10)
			for i := range argSets {
				argSets[i] = tm.args(i + 1)
			}
			ctx := context.Background()
			got, err := endpoint.SelectBatch(ctx, pq, argSets)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := endpoint.SelectBatch(ctx, pq, argSets); err != nil {
				t.Fatal(err)
			}
			err = endpoint.EachSet(ctx, pq, argSets, func(_ int, rows endpoint.Rows) error {
				for rows.Next() {
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, args := range argSets {
				for _, open := range []func() (endpoint.Rows, error){
					func() (endpoint.Rows, error) { return pq.Stream(ctx, args...) },
					func() (endpoint.Rows, error) { return endpoint.StreamBorrowed(ctx, pq, args...) },
				} {
					rows, err := open()
					if err != nil {
						t.Fatal(err)
					}
					for rows.Next() {
					}
					rows.Close()
				}
			}
			for i, args := range argSets {
				want, err := pq.SelectCtx(ctx, args...)
				if err != nil {
					t.Fatal(err)
				}
				if renderResult(got[i]) != renderResult(want) {
					t.Fatalf("%s, %s, tuple %d: the group's result is now\n%s\nSelectCtx answers\n%s", name, tm.name, i, renderResult(got[i]), renderResult(want))
				}
			}
		}
	}
}

// streamTemplates are the shapes a group of streams takes through a
// federation: a routed one, the ordered fan-outs the aligner's samplers
// send (a lone RAND() key), two ordered fan-outs on deterministic keys —
// "keyed" is totally ordered and takes the bounded selection, "ordered"
// the stable sort — all merged per tuple off the shards' groups, and the
// two unordered merges.
var streamTemplates = append(batchTemplates[:1:1], []struct {
	name, tmpl string
	params     []string
	args       func(i int) []sparql.Arg
}{
	batchTemplates[3],
	{"overlap", "SELECT ?x ?y1 ?y2 WHERE { ?x $a ?y1 . ?x $b ?y2 . FILTER NOT EXISTS { ?x $a ?y2 } } ORDER BY RAND() LIMIT $n", []string{"a", "b", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/q"), sparql.IRIArg("http://x/p"), sparql.IntArg(3 + i%7)}
	}},
	{"keyed", "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY DESC(?y) ?x LIMIT $n", []string{"r", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(2 + i%9)}
	}},
	{"ordered", "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?y LIMIT $n", []string{"r", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(1 + i%9)}
	}},
	{"merge", "SELECT ?x ?y WHERE { ?x $r ?y } LIMIT $n", []string{"r", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(1 + 3*(i%9))}
	}},
	{"concat", "SELECT ?y WHERE { ?x $r ?y }", []string{"r"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg([]string{"http://x/p", "http://x/q", "http://x/none"}[i%3])}
	}},
}...)

// checkGroupStreamBatch holds a federation to the StreamBatch contract:
// every set of a group is what Stream answers for its tuple, to the row
// the caller stops at — which is what the unsharded Local streams — and
// the group costs its shards the same queries and rows.
func checkGroupStreamBatch(t *testing.T, build func(t *testing.T) (endpoint.Endpoint, func() endpoint.Stats), quota endpoint.Quota) {
	t.Helper()
	take := func(rows endpoint.Rows, n int) string {
		res := &sparql.Result{Vars: rows.Vars()}
		for (n < 0 || len(res.Rows) < n) && rows.Next() {
			res.Rows = append(res.Rows, append([]rdf.Term(nil), rows.Row()...))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		res.Truncated = n < 0 && rows.Truncated()
		return renderResult(res)
	}
	for _, tm := range streamTemplates {
		for group, subjects := range batchGroups {
			for _, n := range []int{-1, 1} {
				t.Run(fmt.Sprintf("%s/%s/take=%d", tm.name, group, n), func(t *testing.T) {
					argSets := make([][]sparql.Arg, len(subjects))
					for i, s := range subjects {
						argSets[i] = tm.args(s)
					}
					grouped, groupedStats := build(t)
					single, singleStats := build(t)
					pg, err := grouped.Prepare(tm.tmpl, tm.params...)
					if err != nil {
						t.Fatal(err)
					}
					ps, err := single.Prepare(tm.tmpl, tm.params...)
					if err != nil {
						t.Fatal(err)
					}
					pl, err := endpoint.NewLocalRestricted(batchKB(), 7, quota).Prepare(tm.tmpl, tm.params...)
					if err != nil {
						t.Fatal(err)
					}
					sets, err := endpoint.StreamBatch(context.Background(), pg, argSets)
					if err != nil {
						t.Fatal(err)
					}
					defer sets.Close()
					for i, args := range argSets {
						if i > 0 && !sets.NextResultSet() {
							t.Fatalf("no set for tuple %d: %v", i, sets.Err())
						}
						rows, err := ps.Stream(context.Background(), args...)
						if err != nil {
							t.Fatal(err)
						}
						want := take(rows, n)
						rows.Close()
						if rows, err = pl.Stream(context.Background(), args...); err != nil {
							t.Fatal(err)
						}
						local := take(rows, n)
						rows.Close()
						if got := take(sets, n); got != want || (got != local && tm.name != "concat") {
							t.Fatalf("tuple %d: set\n%s\nsingle stream\n%s\nunsharded\n%s", i, got, want, local)
						}
					}
					if sets.NextResultSet() || sets.Err() != nil {
						t.Fatalf("a set past the last tuple, or an error: %v", sets.Err())
					}
					sets.Close()
					if g, s := groupedStats(), singleStats(); g != s && n < 0 {
						t.Fatalf("shards after the group %+v, after the single streams %+v", g, s)
					}
				})
			}
		}
	}
}

// TestStreamBatchContract: a group of streams over in-process shards —
// where the group is, by design, not an endpoint.BatchStreamer and its
// tuples are the single streams they always were, with and without a
// group row cap — and over HTTP shards, where it is one request per shard
// however many tuples it has.
func TestStreamBatchContract(t *testing.T) {
	inProcess := Partitioned(batchKB(), 3, 7)
	pq, err := inProcess.Prepare(batchTemplates[3].tmpl, batchTemplates[3].params...)
	if _, batched := pq.(endpoint.BatchStreamer); err != nil || batched {
		t.Fatalf("an in-process group's handle is a BatchStreamer (%v): it has no request to save", err)
	}
	for name, quota := range map[string]endpoint.Quota{"uncapped": {}, "row cap": {MaxRows: 2}} {
		t.Run("in-process/"+name, func(t *testing.T) {
			checkGroupStreamBatch(t, func(*testing.T) (endpoint.Endpoint, func() endpoint.Stats) {
				g := PartitionedRestricted(batchKB(), 3, 7, quota)
				return g, g.Stats
			}, quota)
		})
	}
	t.Run("http", func(t *testing.T) {
		checkGroupStreamBatch(t, func(t *testing.T) (endpoint.Endpoint, func() endpoint.Stats) {
			g, _, stats := httpShards(t, endpoint.Quota{})
			return g, stats
		}, endpoint.Quota{})
	})

	// What a routed group and an ordered fan-out group cost on the wire,
	// whatever their keys: one request per shard.
	for _, tm := range streamTemplates[:5] {
		g, reqs, _ := httpShards(t, endpoint.Quota{})
		pq, err := g.Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		if _, batched := pq.(endpoint.BatchStreamer); !batched {
			t.Fatal("a group over HTTP shards is not a BatchStreamer")
		}
		argSets := make([][]sparql.Arg, 16)
		for i := range argSets {
			argSets[i] = tm.args(i)
		}
		rows := 0
		err = endpoint.EachSet(context.Background(), pq, argSets, func(_ int, set endpoint.Rows) error {
			for set.Next() {
				rows++
			}
			return nil
		})
		if err != nil || rows == 0 || reqs.Load() != 3 {
			t.Fatalf("%s: %d rows, %d requests for 16 tuples over 3 shards, %v", tm.name, rows, reqs.Load(), err)
		}
	}
}

// TestStreamBatchFailures: a shard's quota trip inside a group ends the
// group in ErrQuotaExceeded, at the open or at the tuple it happens in,
// and a tuple the template cannot take fails it before any shard is
// asked.
func TestStreamBatchFailures(t *testing.T) {
	tm := batchTemplates[3]
	argSets := make([][]sparql.Arg, 6)
	for i := range argSets {
		argSets[i] = tm.args(i)
	}
	for name, g := range map[string]*Group{
		"in-process": PartitionedRestricted(batchKB(), 3, 7, endpoint.Quota{MaxQueries: 2}),
		"http":       func() *Group { g, _, _ := httpShards(t, endpoint.Quota{MaxQueries: 2}); return g }(),
	} {
		pq, err := g.Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		err = endpoint.EachSet(context.Background(), pq, argSets, func(_ int, set endpoint.Rows) error {
			for set.Next() {
			}
			return nil
		})
		if !errors.Is(err, endpoint.ErrQuotaExceeded) {
			t.Errorf("%s: %v; want ErrQuotaExceeded", name, err)
		}
	}
	g, _, stats := httpShards(t, endpoint.Quota{})
	pq, err := g.Prepare(tm.tmpl, tm.params...)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append([][]sparql.Arg{}, argSets[:3]...), []sparql.Arg{sparql.IntArg(1), sparql.IRIArg("http://x/p")})
	if sets, err := endpoint.StreamBatch(context.Background(), pq, bad); err == nil || sets != nil {
		t.Errorf("a tuple of the wrong kind: %v, %v", sets, err)
	}
	if q := stats().Queries; q != 0 {
		t.Errorf("%d queries ran for a group with a bad tuple", q)
	}
}
