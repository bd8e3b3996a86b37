package cluster

import (
	"context"
	"runtime"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sparql"
)

// TestAllocCeilingShardRequest guards what one request to a shard
// allocates, on both sides of the wire — the servers run in this
// process — in bytes as well as objects: a deployment pays it some fifty
// times per aligned relation. Measured over a 3-shard HTTP cluster:
//
//	one routed stream probe (1 request, 1 row)    10.4 KB / 136 objects
//	one RAND fan-out of 12 rows (3 requests)      32.5 KB / 415 objects
//
// The ceilings are 1.25 × that. Before the server prepared a stream's
// text through the plan cache and decoded forms itself, and the client
// recycled read buffers and sized a frame's rows once, the same probes
// cost 15.8 KB / 208 and 56.9 KB / 678; before federated rows were
// borrowed end to end, 12.5 KB / 166 and 43.5 KB / 557; before the
// engine seeded RAND() without rendering the query text and planned a
// one-pattern group without a table, 11.6 KB / 160 and 36.9 KB / 502;
// before the server bound a canonical text off its shape's skeleton
// instead of parsing it, and a template rendered a text in one
// allocation, 11.4 KB / 152 and 36.5 KB / 478; before the client interned
// the strings it decodes and both sides read a body into a pooled buffer,
// 10.5 KB / 138 and 33.1 KB / 442.
func TestAllocCeilingShardRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g, cleanup := newBenchCluster(t, benchKB(1024))
	defer cleanup()
	for _, c := range []struct {
		name, probe, param string
		rows               int
		args               []sparql.Arg
		bytes, objects     float64
	}{
		{"routed", benchProbeRouted, "x", 1, []sparql.Arg{sparql.IRIArg("http://x/s00007")}, 13_000, 170},
		{"fanout", benchProbeSmall, "n", smallRows, []sparql.Arg{sparql.IntArg(smallRows)}, 40_600, 519},
	} {
		pq, err := g.Prepare(c.probe, c.param)
		if err != nil {
			t.Fatal(err)
		}
		run := func() { drainBench(t, pq, c.rows, c.args...) }
		for i := 0; i < 20; i++ {
			run() // plans, connections and pooled buffers settle
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		objects := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%s: %.0f bytes, %.1f objects a probe", c.name, bytes, objects)
		if bytes > c.bytes || objects > c.objects {
			t.Errorf("%s: %.0f bytes, %.1f objects a probe; ceilings %.0f and %.0f", c.name, bytes, objects, c.bytes, c.objects)
		}
	}
}

// TestAllocCeilingOrderedWindowOverWire guards the path every sample and
// overlap window of a federated alignment takes: one ORDER BY RAND()
// LIMIT 400 over 4,096 facts, read through eachSet from a 3-shard HTTP
// group, both sides of the wire in this process. Every shard streams its
// whole pushdown enumeration, ≈ 1,365 rows, and the merge keeps 400.
// Measured at 481 objects / 32 KB a window; while the client copied every
// term string it decoded it was 8,743 objects / 173 KB, and before the
// shard servers, the wire decoder and the merge borrowed their rows — each
// row materialized three times — 13,334 objects / 1,257 KB. The ceilings
// are 2 × that.
func TestAllocCeilingOrderedWindowOverWire(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g, cleanup := newBenchCluster(t, benchKB(4096))
	defer cleanup()
	pq, err := g.Prepare(benchProbe, "n")
	if err != nil {
		t.Fatal(err)
	}
	argSets := [][]sparql.Arg{{sparql.IntArg(400)}}
	run := func() {
		n := 0
		err := eachSet(context.Background(), pq, argSets, func(_ int, rows endpoint.Rows) error {
			for rows.Next() {
				n++
			}
			return nil
		})
		if err != nil || n != 400 {
			t.Fatalf("%d rows, %v", n, err)
		}
	}
	for i := 0; i < 20; i++ {
		run() // plans, connections and pooled buffers settle
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("one window: %.0f bytes, %.1f objects", bytes, objects)
	if bytes > 64_000 || objects > 962 {
		t.Errorf("one window: %.0f bytes, %.1f objects; ceilings 64000 and 962", bytes, objects)
	}
}
