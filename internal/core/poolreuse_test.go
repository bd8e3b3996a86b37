package core

import (
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sofya/internal/cluster"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sampling"
)

// TestAlignRelationsSurvivePoolReuse: what a parallel alignment reads of
// a pooled buffer is never another task's. Eight stage tasks share the
// samplers' scratch (object keys and sample-window facts, back in their
// pool once each range call returns), the engine's selectors and id
// arenas and, over a federation, the wire decoders' terms, the merges'
// windows and the servers' rings, while shared streams and flights are
// joined and hedged attempts outlive the calls that launched them. Over
// the batch stack, Caching(Local), and over a 3-shard × 2-replica HTTP
// cluster hedging after 20µs, the paper world's relations, both
// directions, must align at Parallelism 8 as they do one after the other
// over bare Locals. CI repeats it under the race detector.
func TestAlignRelationsSurvivePoolReuse(t *testing.T) {
	y, d, links := paperWorld()
	const ySeed, dSeed = 11, 22
	align := func(ky, kd endpoint.Endpoint, parallelism int) [][]Alignment {
		t.Helper()
		cfg := UBSConfig()
		cfg.Parallelism = parallelism
		var out [][]Alignment
		for _, dir := range []struct {
			k, kprime endpoint.Endpoint
			kIsA      bool
			ns        string
			rels      []string
		}{{ky, kd, true, yNS, d2yRelations}, {kd, ky, false, dNS, y2dRelations}} {
			rs := make([]string, len(dir.rels))
			for i, r := range dir.rels {
				rs[i] = dir.ns + r
			}
			als, err := New(dir.k, dir.kprime, sampling.LinkView{Links: links, KIsA: dir.kIsA}, cfg).AlignRelations(rs)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, als...)
		}
		return out
	}
	want := align(endpoint.NewLocal(y, ySeed), endpoint.NewLocal(d, dSeed), 1)

	caching := align(endpoint.NewCaching(endpoint.NewLocal(y, ySeed), 0), endpoint.NewCaching(endpoint.NewLocal(d, dSeed), 0), 8)
	if !reflect.DeepEqual(caching, want) {
		t.Errorf("Caching(Local) at Parallelism 8:\ngot  %+v\nwant %+v", caching, want)
	}

	federated := func(src *kb.KB, seed int64) endpoint.Endpoint {
		var shards [][]endpoint.Endpoint
		for _, part := range kb.Partition(src, 3) {
			var reps []endpoint.Endpoint
			for range 2 {
				srv := httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(part, seed)))
				t.Cleanup(srv.Close)
				reps = append(reps, endpoint.NewClient(part.Name(), srv.URL, nil))
			}
			shards = append(shards, reps)
		}
		g, err := cluster.NewGroup(src.Name(), seed, shards, cluster.Options{HedgeDelay: 20 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g
	}
	cl := align(federated(y, ySeed), federated(d, dSeed), 8)
	if !reflect.DeepEqual(cl, want) {
		t.Errorf("3-shard × 2-replica hedged cluster at Parallelism 8:\ngot  %+v\nwant %+v", cl, want)
	}
}
