package endpoint

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// eachSet opens argSets on pq as one group (StreamBatch), hands every
// set in turn to read and closes the group. A group answered in fewer
// sets than tuples fails.
func eachSet(ctx context.Context, pq PreparedQuery, argSets [][]sparql.Arg, read func(i int, rows Rows) error) error {
	sets, err := StreamBatch(ctx, pq, argSets)
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
func selectGroup(ctx context.Context, pq PreparedQuery, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	out := make([]*sparql.Result, len(argSets))
	if err := eachSet(ctx, pq, argSets, func(i int, rows Rows) error {
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

// streamsOnly makes h a server that streams but does not group: an older
// sparqld, which sees one query field, the first, and stream=1.
func streamsOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err == nil && r.PostForm.Get("multi") != "" {
			r.PostForm.Del("multi")
			r.PostForm["query"] = r.PostForm["query"][:1]
		}
		h.ServeHTTP(w, r)
	})
}

// streamStacks are the stacks of this package a group of streams runs
// over: the helper's per-tuple fallback over Local and a decorator, the
// client against sparqld's handler, and against the two kinds of server
// that do not group.
var streamStacks = map[string]func(t *testing.T, l *Local) Endpoint{
	"Local":                      func(_ *testing.T, l *Local) Endpoint { return l },
	"Coalescing(Caching(Local))": func(_ *testing.T, l *Local) Endpoint { return NewCoalescing(NewCaching(l, 0)) },
	"Coalescing(Local)":          func(_ *testing.T, l *Local) Endpoint { return NewCoalescing(l) },
	"Client→Server(Local)":       func(t *testing.T, l *Local) Endpoint { return serveClient(t, NewServer(l)) },
	"Client→streams only(Local)": func(t *testing.T, l *Local) Endpoint { return serveClient(t, streamsOnly(NewServer(l))) },
	"Client→foreign(Local)":      func(t *testing.T, l *Local) Endpoint { return serveClient(t, &foreignHandler{ep: l}) },
}

// takeRows pulls up to take rows (all of them when take < 0) and, when
// that drained the stream, its truncation flag. A set's rows are
// borrowed: each is copied before the next Next.
func takeRows(t *testing.T, rows Rows, take int) (vars []string, out [][]rdf.Term, trunc bool) {
	t.Helper()
	vars = rows.Vars()
	for (take < 0 || len(out) < take) && rows.Next() {
		out = append(out, slices.Clone(rows.Row()))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if take < 0 {
		trunc = rows.Truncated()
	}
	return vars, out, trunc
}

// checkStreamBatchEqualsLoop holds build's stack to the StreamBatch
// contract: over the same stack built twice, every set of a group is
// what Stream answers for its tuple — to the row the caller stops at —
// and the backing Local ends with the same statistics.
func checkStreamBatchEqualsLoop(t *testing.T, build func(t *testing.T, l *Local) Endpoint, quota Quota, tmpl string, params []string, argSets [][]sparql.Arg, take int) {
	t.Helper()
	grouped, single := NewLocalRestricted(batchKB(), 7, quota), NewLocalRestricted(batchKB(), 7, quota)
	pg, err := build(t, grouped).Prepare(tmpl, params...)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := build(t, single).Prepare(tmpl, params...)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := StreamBatch(context.Background(), pg, argSets)
	if err != nil {
		t.Fatal(err)
	}
	defer sets.Close()
	for i, args := range argSets {
		if i > 0 && !sets.NextResultSet() {
			t.Fatalf("no set for tuple %d of %d: %v", i, len(argSets), sets.Err())
		}
		rows, err := ps.Stream(context.Background(), args...)
		if err != nil {
			t.Fatal(err)
		}
		wantVars, want, wantTrunc := takeRows(t, rows, take)
		rows.Close()
		gotVars, got, gotTrunc := takeRows(t, sets, take)
		if !reflect.DeepEqual(gotVars, wantVars) || !reflect.DeepEqual(got, want) || gotTrunc != wantTrunc {
			t.Fatalf("tuple %d: set\n%v %v truncated=%v\nsingle stream\n%v %v truncated=%v", i, gotVars, got, gotTrunc, wantVars, want, wantTrunc)
		}
	}
	if sets.NextResultSet() || sets.Err() != nil {
		t.Fatalf("a set past the last tuple, or an error: %v", sets.Err())
	}
	sets.Close()
	if sets.Next() || sets.NextResultSet() {
		t.Fatal("a closed group still answers")
	}
	if g, s := grouped.Stats(), single.Stats(); g != s {
		t.Fatalf("backing Local after the group %+v, after the single streams %+v", g, s)
	}
}

// TestStreamBatchContract: one contract, every stack of this package.
// shard.Group and cluster.Group run theirs in their packages.
func TestStreamBatchContract(t *testing.T) {
	groups := map[string][]int{"one": {5}, "ten": batchGroups["ten"], "duplicates": batchGroups["duplicates"],
		"no rows": batchGroups["no rows"], "65": seq(65), "200": seq(200)}
	for name, build := range streamStacks {
		t.Run(name, func(t *testing.T) {
			for _, tm := range batchTemplates {
				for group, subjects := range groups {
					argSets := make([][]sparql.Arg, len(subjects))
					for i, s := range subjects {
						argSets[i] = tm.args(s)
					}
					for _, c := range []struct {
						name  string
						quota Quota
						take  int
					}{{"drained", Quota{}, -1}, {"row cap", Quota{MaxRows: 1}, -1}, {"one row each", Quota{}, 1}, {"no row", Quota{}, 0}} {
						if len(subjects) > 10 && c.name != "drained" {
							continue // the long groups are about continuation
						}
						t.Run(tm.name+"/"+group+"/"+c.name, func(t *testing.T) {
							checkStreamBatchEqualsLoop(t, build, c.quota, tm.tmpl, tm.params, argSets, c.take)
						})
					}
				}
			}
		})
	}
}

// TestStreamBatchRequests counts a group of streams on the wire — one
// request up to the cap, the next when the sets of the first are used up
// — and, against the two kinds of server that do not group, exactly one
// request per text, each text once and in order.
func TestStreamBatchRequests(t *testing.T) {
	tm := batchTemplates[0]
	group := func(n int) [][]sparql.Arg {
		out := make([][]sparql.Arg, n)
		for i := range out {
			out[i] = tm.args(i)
		}
		return out
	}
	drain := func(pq PreparedQuery, n int) {
		t.Helper()
		err := eachSet(context.Background(), pq, group(n), func(int, Rows) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ tuples, reqs int }{
		{0, 0}, {1, 1}, {10, 1}, {maxMultiQueries, 1}, {maxMultiQueries + 1, 2}, {200, 4},
	} {
		l := NewLocal(batchKB(), 7)
		h := &countingHandler{h: NewServer(l)}
		pq, err := serveClient(t, h).Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		drain(pq, c.tuples)
		if got := int(h.reqs.Load()); got != c.reqs || l.Stats().Queries != c.tuples {
			t.Errorf("%d tuples: %d requests, %d queries; want %d requests", c.tuples, got, l.Stats().Queries, c.reqs)
		}
	}

	var texts []string
	record := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			texts = append(texts, r.FormValue("query"))
			h.ServeHTTP(w, r)
		})
	}
	for name, h := range map[string]http.Handler{
		"streams only": streamsOnly(NewServer(NewLocal(batchKB(), 7))),
		"foreign":      &foreignHandler{ep: NewLocal(batchKB(), 7)},
	} {
		texts = nil
		pq, err := serveClient(t, record(h)).Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		drain(pq, 10)
		var want []string
		for _, args := range group(10) {
			text, _ := pq.(*clientPrepared).tmpl.Text(args...)
			want = append(want, text)
		}
		if !reflect.DeepEqual(texts, want) {
			t.Errorf("%s server ran\n%q\nwant each of\n%q\nonce, in order", name, texts, want)
		}
	}
}

// TestStreamBatchByteChunks: a group whose texts together pass the
// server's body limit continues in further requests, none of which meets
// it.
func TestStreamBatchByteChunks(t *testing.T) {
	l := NewLocal(batchKB(), 7)
	var largest atomic.Int64
	srv := NewServer(l)
	h := &countingHandler{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := r.ContentLength; n > largest.Load() {
			largest.Store(n)
		}
		srv.ServeHTTP(w, r)
	})}
	// 12 texts of ~200 KiB: at most four fit a request.
	argSets := make([][]sparql.Arg, 12)
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/" + strings.Repeat("p", 200<<10))}
	}
	argSets[5][1] = sparql.IRIArg("http://x/p") // and one that has rows
	pq, err := serveClient(t, h).Prepare(batchTemplates[0].tmpl, batchTemplates[0].params...)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf := make([]int, len(argSets))
	err = eachSet(context.Background(), pq, argSets, func(i int, rows Rows) error {
		for rows.Next() {
			rowsOf[i]++
		}
		return nil
	})
	if err != nil || rowsOf[5] != 1 || rowsOf[4] != 0 {
		t.Fatalf("%v; rows per tuple %v", err, rowsOf)
	}
	if reqs := h.reqs.Load(); reqs < 3 || reqs > 4 || largest.Load() > maxQueryBytes || l.Stats().Queries != 12 {
		t.Fatalf("%d requests, the largest of %d bytes, %d queries", reqs, largest.Load(), l.Stats().Queries)
	}
}

// TestStreamBatchFailures: a group fails as its tuples one by one would
// have — at the first failing tuple, with that tuple's typed error, with
// nothing after it run, and never with a short or empty set in its place.
func TestStreamBatchFailures(t *testing.T) {
	// Every tuple answers two batches of rows, so that by the second
	// text the server has written to the wire.
	const tmpl = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT $n"
	const k = 2
	argSets := make([][]sparql.Arg, 5)
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IntArg(2*WireBatch + i)}
	}
	for name, build := range streamStacks {
		l := NewLocalRestricted(batchKB(), 7, Quota{MaxQueries: k})
		pq, err := build(t, l).Prepare(tmpl, "n")
		if err != nil {
			t.Fatal(err)
		}
		sets, err := StreamBatch(context.Background(), pq, argSets)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < k; i++ {
			if i > 0 && !sets.NextResultSet() {
				t.Fatalf("%s: no set %d before the quota trip: %v", name, i, sets.Err())
			}
			if _, rows, _ := takeRows(t, sets, -1); len(rows) != 2*WireBatch+i {
				t.Errorf("%s: set %d has %d rows", name, i, len(rows))
			}
		}
		if sets.NextResultSet() || !errors.Is(sets.Err(), ErrQuotaExceeded) || errors.Is(sets.Err(), ErrOverloaded) || sets.Next() {
			t.Errorf("%s: past the quota: %v; want no set and ErrQuotaExceeded", name, sets.Err())
		}
		sets.Close()
		if st := l.Stats(); st.Queries != k || st.Denied != 1 {
			t.Errorf("%s: %+v; want %d queries and one denial", name, st, k)
		}
	}

	// Short sets: nothing has left the server when the quota trips, and
	// the request answers with the status the text's own would have had.
	l := NewLocalRestricted(batchKB(), 7, Quota{MaxQueries: k})
	pq, err := serveClient(t, NewServer(l)).Prepare(batchTemplates[0].tmpl, batchTemplates[0].params...)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := StreamBatch(context.Background(), pq, [][]sparql.Arg{batchTemplates[0].args(1), batchTemplates[0].args(2), batchTemplates[0].args(3)})
	if !errors.Is(err, ErrQuotaExceeded) || sets != nil || l.Stats().Queries != k {
		t.Errorf("short group past the quota: %v, %v, %+v", sets, err, l.Stats())
	}
}

// TestStreamBatchCloseMidGroup: closing a group releases its body, and
// the server, which finds its peer gone, stops — the texts it had not
// reached never run.
func TestStreamBatchCloseMidGroup(t *testing.T) {
	l := NewLocal(batchKB(), 7)
	done := make(chan struct{}, 1)
	srv := NewServer(l)
	c := serveClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		done <- struct{}{}
	}))
	// Each text answers a cross join of a few megabytes: more than the
	// loopback's buffers take, so the handler is held inside the group.
	pq, err := c.Prepare("SELECT ?s ?p ?o ?a ?b ?c WHERE { ?s ?p ?o . ?a ?b ?c } LIMIT $n", "n")
	if err != nil {
		t.Fatal(err)
	}
	argSets := make([][]sparql.Arg, 16)
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IntArg(20000 + i)}
	}
	sets, err := StreamBatch(context.Background(), pq, argSets)
	if err != nil {
		t.Fatal(err)
	}
	if !sets.Next() || !sets.NextResultSet() || !sets.Next() {
		t.Fatalf("the group's first sets: %v", sets.Err())
	}
	sets.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the server is still answering a closed group")
	}
	if q := l.Stats().Queries; q < 2 || q >= len(argSets) {
		t.Fatalf("%d of %d texts ran", q, len(argSets))
	}
}
