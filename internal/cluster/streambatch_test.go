package cluster

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// eachSet opens argSets on pq as one group (endpoint.StreamBatch), hands
// every set in turn to read and closes the group. A group answered in
// fewer sets than tuples fails.
func eachSet(ctx context.Context, pq endpoint.PreparedQuery, argSets [][]sparql.Arg, read func(i int, rows endpoint.Rows) error) error {
	sets, err := endpoint.StreamBatch(ctx, pq, argSets)
	if err != nil {
		return err
	}
	defer sets.Close()
	for i := range argSets {
		if i > 0 && !sets.NextResultSet() {
			return cmp.Or(sets.Err(), fmt.Errorf("a group of %d answered in %d sets", len(argSets), i))
		}
		if err := cmp.Or(read(i, sets), sets.Err()); err != nil {
			return err
		}
	}
	return nil
}

// selectGroup is eachSet copying every set out whole, in tuple order.
func selectGroup(ctx context.Context, pq endpoint.PreparedQuery, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	out := make([]*sparql.Result, len(argSets))
	if err := eachSet(ctx, pq, argSets, func(i int, rows endpoint.Rows) error {
		out[i] = &sparql.Result{Vars: rows.Vars()}
		for rows.Next() {
			out[i].Rows = append(out[i].Rows, slices.Clone(rows.Row()))
		}
		out[i].Truncated = rows.Truncated()
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// groupKB holds n subjects under two relations whose objects differ for
// two subjects in three: what an overlap probe enumerates.
func groupKB(n int) *kb.KB {
	k := kb.New("group")
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("http://x/s%03d", i)
		k.AddIRIs(s, "http://x/a", fmt.Sprintf("http://x/o%d", i%7))
		k.AddIRIs(s, "http://x/b", fmt.Sprintf("http://x/o%d", i%7+i%3))
	}
	k.Freeze()
	return k
}

const groupOverlap = "SELECT ?x ?y1 ?y2 WHERE { ?x $a ?y1 . ?x $b ?y2 . FILTER NOT EXISTS { ?x $a ?y2 } } ORDER BY RAND() LIMIT $n"

// overlapGroup is n overlap probes, as the UBS stage of an alignment
// sends them: sibling pairs in both orders, windows of a few hundred.
func overlapGroup(n int) [][]sparql.Arg {
	out := make([][]sparql.Arg, n)
	for i := range out {
		a, b := "http://x/a", "http://x/b"
		if i%2 == 1 {
			a, b = b, a
		}
		out[i] = []sparql.Arg{sparql.IRIArg(a), sparql.IRIArg(b), sparql.IntArg(560 + i)}
	}
	return out
}

// TestStreamBatchContract: through replica sets and the federation over
// them, every set of a group of streams is the single stream of its
// tuple, and the replicas' KBs are asked the same queries for the same
// rows — at one shard, where the set alone is under test, and at three.
func TestStreamBatchContract(t *testing.T) {
	src := groupKB(300) // a shard's sequence is longer than a frame
	for _, nShards := range []int{1, 3} {
		for _, group := range []struct {
			name, tmpl string
			params     []string
			argSets    [][]sparql.Arg
		}{
			{"overlap", groupOverlap, []string{"a", "b", "n"}, overlapGroup(16)},
			{"ordered", "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY ?y LIMIT $n", []string{"r", "n"}, [][]sparql.Arg{
				{sparql.IRIArg("http://x/a"), sparql.IntArg(6)}, {sparql.IRIArg("http://x/b"), sparql.IntArg(200)},
				{sparql.IRIArg("http://x/none"), sparql.IntArg(3)}}},
			{"objects", "SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}, [][]sparql.Arg{
				{sparql.IRIArg("http://x/s001"), sparql.IRIArg("http://x/a")}, {sparql.IRIArg("http://x/none"), sparql.IRIArg("http://x/a")},
				{sparql.IRIArg("http://x/s299"), sparql.IRIArg("http://x/b")}}},
		} {
			t.Run(fmt.Sprintf("shards=%d/%s", nShards, group.name), func(t *testing.T) {
				grouped, single := newTestCluster(t, src, nShards, 2, 3, Options{}), newTestCluster(t, src, nShards, 2, 3, Options{})
				pg, err := grouped.group.Prepare(group.tmpl, group.params...)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := single.group.Prepare(group.tmpl, group.params...)
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := pg.(endpoint.BatchStreamer); !ok {
					t.Fatal("a cluster group's handle is not a BatchStreamer")
				}
				err = eachSet(context.Background(), pg, group.argSets, func(i int, set endpoint.Rows) error {
					rows, err := ps.Stream(context.Background(), group.argSets[i]...)
					if err != nil {
						return err
					}
					defer rows.Close()
					if got, want := takeStream(set, -1), takeStream(rows, -1); got != want {
						t.Errorf("set %d diverges:\n--- group ---\n%s\n--- single stream ---\n%s", i, got, want)
					}
					return rows.Err()
				})
				if err != nil {
					t.Fatal(err)
				}
				var g, s endpoint.Stats
				for i := range grouped.locals {
					gs, ss := grouped.locals[i].Stats(), single.locals[i].Stats()
					g.Queries, g.Rows = g.Queries+gs.Queries, g.Rows+gs.Rows
					s.Queries, s.Rows = s.Queries+ss.Queries, s.Rows+ss.Rows
				}
				if g != s || g.Queries == 0 {
					t.Fatalf("replicas after the group %+v, after the single streams %+v", g, s)
				}
			})
		}
	}
}

// TestAllocCeilingGroupedStreams guards what grouping streams is for:
// sixteen overlap probes of twenty rows through a 3-shard HTTP cluster as
// one group — three requests — against the same sixteen as single
// streams — forty-eight — in bytes and objects, both sides of the wire.
// Measured:
//
//	one group of 16     179 KB / 2,362 objects
//	16 single streams   606 KB / 7,227 objects
//
// While the client copied every term string it decoded, the group cost
// 201 KB / 3,419 objects and the singles 629 KB / 8,326; while the shard
// servers materialized every row they encoded, and the client and the
// merge every row they read, 582 KB / 6,209 and 951 KB / 11,092; while
// the servers parsed every text they were sent, 377 KB / 4,879 and
// 798 KB / 9,785.
// The ceiling on the group is 1.25 × the first line, and it must stay
// under the singles.
func TestAllocCeilingGroupedStreams(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g, cleanup := newBenchCluster(t, groupKB(30))
	defer cleanup()
	pq, err := g.Prepare(groupOverlap, "a", "b", "n")
	if err != nil {
		t.Fatal(err)
	}
	argSets := overlapGroup(16)
	measure := func(run func()) (bytes, objects float64) {
		for i := 0; i < 10; i++ {
			run() // plans, connections and pooled buffers settle
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	gb, gobj := measure(func() { drainGroup(t, pq, argSets) })
	sb, sobj := measure(func() {
		for _, args := range argSets {
			drainSingle(t, pq, args)
		}
	})
	t.Logf("one group of 16: %.0f bytes, %.1f objects; 16 single streams: %.0f bytes, %.1f objects", gb, gobj, sb, sobj)
	if gb > 224_000 || gobj > 2_953 || gb >= sb || gobj >= sobj {
		t.Errorf("one group of 16: %.0f bytes, %.1f objects; ceilings 224000 and 2953, and the singles' %.0f and %.1f", gb, gobj, sb, sobj)
	}
}

// drainGroup reads the first 14 rows of every set of a group, as the
// UBS sampler does.
func drainGroup(tb testing.TB, pq endpoint.PreparedQuery, argSets [][]sparql.Arg) {
	tb.Helper()
	err := eachSet(context.Background(), pq, argSets, func(i int, rows endpoint.Rows) error {
		n := 0
		for n < 14 && rows.Next() {
			n++
		}
		if n != 14 {
			tb.Errorf("set %d: %d rows", i, n)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// drainSingle is one tuple of drainGroup as a stream of its own.
func drainSingle(tb testing.TB, pq endpoint.PreparedQuery, args []sparql.Arg) {
	tb.Helper()
	rows, err := pq.Stream(context.Background(), args...)
	if err != nil {
		tb.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for n < 14 && rows.Next() {
		n++
	}
	if n != 14 || rows.Err() != nil {
		tb.Fatalf("%d rows, %v", n, rows.Err())
	}
}

// BenchmarkClusterGroupedStreams: sixteen overlap probes over a 3-shard
// HTTP cluster as one group of streams (three requests) and as sixteen
// single streams (forty-eight).
func BenchmarkClusterGroupedStreams(b *testing.B) {
	g, cleanup := newBenchCluster(b, groupKB(30))
	defer cleanup()
	pq, err := g.Prepare(groupOverlap, "a", "b", "n")
	if err != nil {
		b.Fatal(err)
	}
	argSets := overlapGroup(16)
	b.Run("group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			drainGroup(b, pq, argSets)
		}
	})
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, args := range argSets {
				drainSingle(b, pq, args)
			}
		}
	})
}

// TestBorrowedGroupsSurvivePoolReuse: what a caller keeps of a federated
// answer is its own. A group's sets, a merge's window, a wire frame and
// a server's ring are borrowed from pools, so this keeps a drained
// group (selectGroup), owned Streams (ordered, fanned-out unordered and routed) and a
// SelectCtx from a 3-shard HTTP group, then runs fifty-odd sample and
// overlap windows through eachSet over the same pools, and only then
// compares what it kept with the unsharded Local's answers. A kept row
// that points into a pooled buffer reads as another window's row.
func TestBorrowedGroupsSurvivePoolReuse(t *testing.T) {
	const seed = 3
	src := groupKB(300)
	g := newTestCluster(t, src, 3, 1, seed, Options{}).group
	local := endpoint.NewLocal(src, seed)
	ctx := context.Background()
	prepare := func(ep endpoint.Endpoint, tmpl string, params ...string) endpoint.PreparedQuery {
		t.Helper()
		pq, err := ep.Prepare(tmpl, params...)
		if err != nil {
			t.Fatal(err)
		}
		return pq
	}
	stream := func(pq endpoint.PreparedQuery, args ...sparql.Arg) *sparql.Result {
		t.Helper()
		rows, err := pq.Stream(ctx, args...)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		res := &sparql.Result{Vars: rows.Vars()}
		for rows.Next() {
			res.Rows = append(res.Rows, rows.Row()) // kept as handed out: a Stream's rows are the caller's
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		res.Truncated = rows.Truncated()
		return res
	}
	const (
		sample  = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
		scan    = "SELECT ?x ?y WHERE { ?x $r ?y }"
		objects = "SELECT ?y WHERE { $x $r ?y }"
	)
	a, b := sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/b")
	type kept struct {
		name      string
		got, want []*sparql.Result
	}
	var keep []kept
	for _, c := range []struct {
		name    string
		tmpl    string
		params  []string
		argSets [][]sparql.Arg
	}{
		{"drained overlap", groupOverlap, []string{"a", "b", "n"}, overlapGroup(4)},
		{"drained sample", sample, []string{"r", "n"}, [][]sparql.Arg{{a, sparql.IntArg(40)}, {b, sparql.IntArg(90)}}},
		{"drained objects", objects, []string{"x", "r"}, [][]sparql.Arg{
			{sparql.IRIArg("http://x/s001"), a}, {sparql.IRIArg("http://x/s299"), b}, {sparql.IRIArg("http://x/s150"), a}}},
	} {
		got, err := selectGroup(ctx, prepare(g, c.tmpl, c.params...), c.argSets)
		if err != nil {
			t.Fatal(err)
		}
		want, err := selectGroup(ctx, prepare(local, c.tmpl, c.params...), c.argSets)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, kept{c.name, got, want})
	}
	for _, c := range []struct {
		name   string
		tmpl   string
		params []string
		args   []sparql.Arg
	}{
		{"Stream sample", sample, []string{"r", "n"}, []sparql.Arg{a, sparql.IntArg(70)}},
		{"Stream overlap", groupOverlap, []string{"a", "b", "n"}, []sparql.Arg{b, a, sparql.IntArg(30)}},
		{"Stream scan", scan, []string{"r"}, []sparql.Arg{b}},
		{"Stream objects", objects, []string{"x", "r"}, []sparql.Arg{sparql.IRIArg("http://x/s042"), b}},
	} {
		keep = append(keep, kept{c.name,
			[]*sparql.Result{stream(prepare(g, c.tmpl, c.params...), c.args...)},
			[]*sparql.Result{stream(prepare(local, c.tmpl, c.params...), c.args...)}})
	}
	got, err := prepare(g, sample, "r", "n").SelectCtx(ctx, b, sparql.IntArg(120))
	if err != nil {
		t.Fatal(err)
	}
	want, err := prepare(local, sample, "r", "n").SelectCtx(ctx, b, sparql.IntArg(120))
	if err != nil {
		t.Fatal(err)
	}
	keep = append(keep, kept{"SelectCtx sample", []*sparql.Result{got}, []*sparql.Result{want}})

	// Two callers share the pools from here on, as an alignment's
	// workers do: which of them a pooled buffer goes to next is decided
	// between goroutines.
	var windows, rows atomic.Int64
	read := func(_ int, set endpoint.Rows) error {
		for set.Next() {
			rows.Add(1)
		}
		windows.Add(1)
		return nil
	}
	pSample, pOverlap := prepare(g, sample, "r", "n"), prepare(g, groupOverlap, "a", "b", "n")
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < 14; i += 2 {
				sampleSets := [][]sparql.Arg{{a, sparql.IntArg(50 + i)}, {b, sparql.IntArg(200 - i)}}
				err := cmp.Or(
					eachSet(ctx, pSample, sampleSets, read),
					eachSet(ctx, pSample, sampleSets[1:], read), // a group of one streams its tuple
					eachSet(ctx, pOverlap, overlapGroup(1+i%3), read))
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if windows.Load() < 50 || rows.Load() == 0 {
		t.Fatalf("%d windows, %d rows: the pools were not put back to work", windows.Load(), rows.Load())
	}
	for _, k := range keep {
		for i := range k.want {
			if got, want := renderResult(k.got[i]), renderResult(k.want[i]); got != want {
				t.Errorf("%s, result %d, after %d further windows:\n--- kept ---\n%s\n--- unsharded ---\n%s", k.name, i, windows.Load(), got, want)
			}
		}
	}
}
