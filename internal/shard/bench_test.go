package shard

import (
	"context"
	"fmt"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

func benchKB(n int) *kb.KB {
	k := kb.New("bench")
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("http://x/s%05d", i)
		k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	return k
}

// BenchmarkShardedProbe compares the sampling probe (ORDER BY RAND()
// LIMIT k) on one Local endpoint against its fan-out over a shard
// Group: the sequential baseline vs the k-way merge with RAND
// reassembly. Outputs are byte-identical; the benchmark tracks the
// federation overhead.
func BenchmarkShardedProbe(b *testing.B) {
	const facts = 20000
	run := func(b *testing.B, ep endpoint.Endpoint) {
		pq, err := ep.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
		if err != nil {
			b.Fatal(err)
		}
		args := []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(10)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pq.SelectCtx(context.Background(), args...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq", func(b *testing.B) {
		run(b, endpoint.NewLocal(benchKB(facts), 1))
	})
	for _, n := range []int{2, 4, 7} {
		b.Run(fmt.Sprintf("fanout-%d", n), func(b *testing.B) {
			run(b, Partitioned(benchKB(facts), n, 1))
		})
	}
}

// BenchmarkShardedScan measures the unordered subject-merge stream
// against the sequential scan, early-closed after a fixed prefix.
func BenchmarkShardedScan(b *testing.B) {
	const facts = 20000
	run := func(b *testing.B, ep endpoint.Endpoint) {
		pq, err := ep.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 50 && rows.Next(); j++ {
			}
			rows.Close()
		}
	}
	b.Run("seq", func(b *testing.B) {
		run(b, endpoint.NewLocal(benchKB(facts), 1))
	})
	b.Run("fanout-4", func(b *testing.B) {
		run(b, Partitioned(benchKB(facts), 4, 1))
	})
}

// BenchmarkTextThroughGroup measures query texts answered through a
// Group's text methods: a routed SELECT and ASK whose text is new on
// every call (the plan cache misses, one shard prepares), the same
// routed text repeated (the cache hits), and the sampling shape with a
// varying LIMIT (a miss that fans out and merges).
func BenchmarkTextThroughGroup(b *testing.B) {
	const facts = 20000
	g := Partitioned(benchKB(facts), 4, 1)
	ctx := context.Background()
	sel := func(b *testing.B, text func(i int) string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := g.SelectCtx(ctx, text(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("routed-miss", func(b *testing.B) {
		sel(b, func(i int) string {
			return fmt.Sprintf("SELECT ?y WHERE { <http://x/s%05d> <http://x/p> ?y }", i%facts)
		})
	})
	b.Run("routed-hit", func(b *testing.B) {
		sel(b, func(int) string { return "SELECT ?y WHERE { <http://x/s00042> <http://x/p> ?y }" })
	})
	b.Run("sample-miss", func(b *testing.B) {
		// The LIMIT cycles over more values than the cache holds, so no
		// text is still cached when it comes round again.
		sel(b, func(i int) string {
			return fmt.Sprintf("SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT %d", 10+i%(maxCachedPlans+1))
		})
	})
	b.Run("ask-routed-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := i % facts
			if _, err := g.AskCtx(ctx, fmt.Sprintf("ASK { <http://x/s%05d> <http://x/p> <http://x/o%d> }", j, j)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
