package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/shard"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// Benchmarks for the network-federation overhead table in
// EXPERIMENTS.md: the same probe against an in-process group, an HTTP
// cluster with batch framing, and an HTTP cluster forced to row-at-a-
// time framing — the before/after of the wire batching.

// benchKB holds one relation of rows facts, p, and one of smallRows, q:
// most relations an alignment probes are that small, and what such a
// probe costs is what a request costs.
func benchKB(rows int) *kb.KB {
	k := kb.New("bench")
	for i := 0; i < rows; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%05d", i), "http://x/p", fmt.Sprintf("http://x/o%05d", i))
	}
	for i := 0; i < smallRows; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%05d", i), "http://x/q", fmt.Sprintf("http://x/o%05d", i))
	}
	k.Freeze()
	return k
}

const (
	benchProbe = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY RAND() LIMIT $n"
	// The same probe over q: every shard streams its few facts whole.
	benchProbeSmall = "SELECT ?s ?o WHERE { ?s <http://x/q> ?o } ORDER BY RAND() LIMIT $n"
	smallRows       = 12
	// A routed probe: the objects of one subject, from the one shard
	// that has it — a single stream request.
	benchProbeRouted = "SELECT ?y WHERE { $x <http://x/p> ?y }"
)

func drainBench(tb testing.TB, pq endpoint.PreparedQuery, n int, args ...sparql.Arg) {
	tb.Helper()
	rows, err := pq.Stream(context.Background(), args...)
	if err != nil {
		tb.Fatal(err)
	}
	cnt := 0
	for rows.Next() {
		cnt++
	}
	if err := rows.Err(); err != nil {
		tb.Fatal(err)
	}
	rows.Close()
	if cnt != n {
		tb.Fatalf("drained %d rows, want %d", cnt, n)
	}
}

// newBenchCluster builds a 3-shard × 1-replica HTTP cluster.
func newBenchCluster(tb testing.TB, src *kb.KB) (*Group, func()) {
	tb.Helper()
	const seed = 41
	parts := kb.Partition(src, 3)
	var servers []*httptest.Server
	shards := make([][]endpoint.Endpoint, len(parts))
	for i, part := range parts {
		srv := httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(part, seed)))
		servers = append(servers, srv)
		shards[i] = []endpoint.Endpoint{endpoint.NewClient(part.Name(), srv.URL, nil)}
	}
	g, err := NewGroup(src.Name(), seed, shards, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return g, func() {
		g.Close()
		for _, srv := range servers {
			srv.Close()
		}
	}
}

// BenchmarkClusterProbeHTTP: the RAND-ordered probe over a 3-shard
// HTTP cluster (64-row batch framing) — 32 of 4,096 facts, and all of a
// relation of 12, where the three requests are most of the cost.
func BenchmarkClusterProbeHTTP(b *testing.B) {
	g, cleanup := newBenchCluster(b, benchKB(4096))
	defer cleanup()
	for _, c := range []struct {
		name, probe string
		n           int
	}{{"rows=4096", benchProbe, 32}, {"rows=12", benchProbeSmall, smallRows}} {
		b.Run(c.name, func(b *testing.B) {
			pq, err := g.Prepare(c.probe, "n")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainBench(b, pq, c.n, sparql.IntArg(c.n))
			}
		})
	}
}

// BenchmarkClusterOrderedHTTP: deterministic-key ORDER BY over a 3-shard
// HTTP cluster on the paper world — what evaluating such keys at the
// merge costs (EXPERIMENTS.md, PR 23). No alignment probe and no ladder
// workload has this shape.
func BenchmarkClusterOrderedHTTP(b *testing.B) {
	w := synth.Generate(synth.DefaultSpec())
	w.Yago.Freeze()
	rel, _ := entityRelations(b, w.Yago)
	g, cleanup := newBenchCluster(b, w.Yago)
	defer cleanup()
	for _, c := range []struct{ name, order string }{
		{"object_limit", "ORDER BY ?y LIMIT 6"},
		{"desc_subject", "ORDER BY DESC(?x) ?y"},
		{"expression", "ORDER BY STRLEN(STR(?y)) ?x LIMIT 6"},
	} {
		text := fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } %s", rel, c.order)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := g.SelectCtx(context.Background(), text)
				if err != nil || len(res.Rows) == 0 {
					b.Fatalf("%d rows, %v", len(res.Rows), err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkClusterProbeRoutedHTTP: one routed stream probe — one
// request to one shard, one row back: the per-request floor.
func BenchmarkClusterProbeRoutedHTTP(b *testing.B) {
	g, cleanup := newBenchCluster(b, benchKB(1024))
	defer cleanup()
	pq, err := g.Prepare(benchProbeRouted, "x")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainBench(b, pq, 1, sparql.IRIArg("http://x/s00007"))
	}
}

// BenchmarkClusterProbeBatchHTTP: ten object fetches — one sampled
// subject each, the aligner's commonest probe — over a 3-shard HTTP
// cluster, as one group (one request per shard that has a subject) and
// as ten single probes (one request each).
func BenchmarkClusterProbeBatchHTTP(b *testing.B) {
	src := benchKB(1024)
	g, cleanup := newBenchCluster(b, src)
	defer cleanup()
	pq, err := g.Prepare("SELECT ?y WHERE { $x $r ?y }", "x", "r")
	if err != nil {
		b.Fatal(err)
	}
	argSets := make([][]sparql.Arg, 10)
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IRIArg(fmt.Sprintf("http://x/s%05d", 7*i)), sparql.IRIArg("http://x/p")}
	}
	check := func(res *sparql.Result, err error) {
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("%v, %v", res, err)
		}
	}
	b.Run("group", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			results, err := endpoint.SelectBatch(context.Background(), pq, argSets)
			if err != nil || len(results) != len(argSets) {
				b.Fatalf("%d results, %v", len(results), err)
			}
			check(results[0], nil)
		}
	})
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, args := range argSets {
				check(pq.SelectCtx(context.Background(), args...))
			}
		}
	})
}

// BenchmarkClusterProbeInProcess: the in-process baseline — the same
// federation merge over Locals, no network.
func BenchmarkClusterProbeInProcess(b *testing.B) {
	src := benchKB(4096)
	g := shard.Partitioned(src, 3, 41)
	pq, err := g.Prepare(benchProbe, "n")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainBench(b, pq, 32, sparql.IntArg(32))
	}
}

// BenchmarkClusterAskProbe: cheap point probes (the health checker's
// and alignment loop's shape) over HTTP.
func BenchmarkClusterAskProbe(b *testing.B) {
	src := benchKB(1024)
	g, cleanup := newBenchCluster(b, src)
	defer cleanup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := g.AskCtx(context.Background(), "ASK { <http://x/s00007> <http://x/p> ?o }")
		if err != nil || !ok {
			b.Fatalf("ask = %v, %v", ok, err)
		}
	}
}

// BenchmarkClusterHedgedProbe: the hedging machinery's overhead when
// the hedge never fires (healthy replicas, generous delay).
func BenchmarkClusterHedgedProbe(b *testing.B) {
	src := benchKB(1024)
	const seed = 41
	parts := kb.Partition(src, 1)
	shards := [][]endpoint.Endpoint{{
		endpoint.NewLocal(parts[0], seed),
		endpoint.NewLocal(parts[0], seed),
	}}
	g, err := NewGroup(src.Name(), seed, shards, Options{HedgeDelay: 50_000_000 /* 50ms */})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	pq, err := g.Prepare(benchProbe, "n")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainBench(b, pq, 32, sparql.IntArg(32))
	}
}
