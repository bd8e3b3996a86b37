package core

import (
	"reflect"
	"sync"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sampling"
)

// batchHeads are the relations the batch tests align — every head-side
// relation of the paperWorld with candidates, plus an unknown one.
var batchHeads = []string{
	yNS + "creatorOf",
	yNS + "directedBy",
	yNS + "producedBy",
	yNS + "bornYear",
	yNS + "neverSeen",
}

// alignerWithParallelism builds a D2Y aligner over fresh endpoints with
// fixed seeds and the given worker bound.
func alignerWithParallelism(cfg Config, parallelism int) (*Aligner, *endpoint.Local, *endpoint.Local) {
	y, d, links := paperWorld()
	cfg.Parallelism = parallelism
	ky := endpoint.NewLocal(y, 3)
	kd := endpoint.NewLocal(d, 4)
	return New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, cfg), ky, kd
}

// The headline acceptance property: for fixed endpoint seeds, the
// parallel batch output is byte-identical to the sequential path.
func TestAlignRelationsParallelMatchesSequential(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), UBSConfig()} {
		seq, _, _ := alignerWithParallelism(cfg, 1)
		want := make([][]Alignment, len(batchHeads))
		for i, r := range batchHeads {
			als, err := seq.AlignRelation(r)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = als
		}

		for _, p := range []int{2, 8} {
			par, _, _ := alignerWithParallelism(cfg, p)
			got, err := par.AlignRelations(batchHeads)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallelism %d: batch output differs from sequential:\ngot  %+v\nwant %+v", p, got, want)
			}
		}
	}
}

// Decorating the endpoints must not change the verdicts either: the
// cache answers exactly what the seeded Local would.
func TestAlignRelationsDecoratedMatchesUndecorated(t *testing.T) {
	seq, _, _ := alignerWithParallelism(UBSConfig(), 1)
	want, err := seq.AlignRelations(batchHeads)
	if err != nil {
		t.Fatal(err)
	}

	y, d, links := paperWorld()
	cfg := UBSConfig()
	cfg.Parallelism = 8
	qy := endpoint.NewCaching(endpoint.NewLocal(y, 3), 0)
	qd := endpoint.NewCaching(endpoint.NewLocal(d, 4), 0)
	dec := New(qy, qd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	got, err := dec.AlignRelations(batchHeads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decorated batch differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// The acceptance criterion on endpoint economy: a batch over shared
// Caching endpoints issues strictly fewer queries than N
// independent sequential AlignRelation calls.
func TestBatchSharedCacheIssuesFewerQueries(t *testing.T) {
	heads := batchHeads[:4] // the relations that actually exist

	independent := 0
	for _, r := range heads {
		a, ky, kd := alignerWithParallelism(UBSConfig(), 1)
		if _, err := a.AlignRelation(r); err != nil {
			t.Fatal(err)
		}
		independent += ky.Stats().Queries + kd.Stats().Queries
	}

	y, d, links := paperWorld()
	cfg := UBSConfig()
	cfg.Parallelism = 8
	ky := endpoint.NewLocal(y, 3)
	kd := endpoint.NewLocal(d, 4)
	qy := endpoint.NewCaching(ky, 0)
	qd := endpoint.NewCaching(kd, 0)
	batch := New(qy, qd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	if _, err := batch.AlignRelations(heads); err != nil {
		t.Fatal(err)
	}
	shared := ky.Stats().Queries + kd.Stats().Queries

	if shared >= independent {
		t.Fatalf("shared decorated batch issued %d queries, independent runs %d — want strictly fewer", shared, independent)
	}
	t.Logf("endpoint queries: independent=%d shared=%d (saved %d)", independent, shared, independent-shared)
}

// AlignRelations must surface the first error in input order.
func TestAlignRelationsErrorPropagation(t *testing.T) {
	y, d, links := paperWorld()
	cfg := UBSConfig()
	cfg.Parallelism = 4
	// a budget too small for the batch: some relation fails mid-flight
	ky := endpoint.NewLocalRestricted(y, 3, endpoint.Quota{MaxQueries: 5})
	kd := endpoint.NewLocal(d, 4)
	a := New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	if _, err := a.AlignRelations(batchHeads); err == nil {
		t.Fatal("quota exhaustion did not surface")
	}
}

// Concurrent cache misses on one relation must run a single alignment:
// the query bill of 8 racing callers equals one sequential computation.
func TestCacheSingleflightsConcurrentMisses(t *testing.T) {
	ref, refY, refD := alignerWithParallelism(DefaultConfig(), 1)
	if _, err := ref.AlignRelation(yNS + "directedBy"); err != nil {
		t.Fatal(err)
	}
	oneRun := refY.Stats().Queries + refD.Stats().Queries

	a, ky, kd := alignerWithParallelism(DefaultConfig(), 1)
	c := NewCache(a)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.AlignRelation(yNS + "directedBy"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := ky.Stats().Queries + kd.Stats().Queries; got != oneRun {
		t.Fatalf("8 concurrent misses issued %d queries, one sequential run %d — duplicate work not singleflighted", got, oneRun)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// Cache.AlignRelations batches through the memo: overlapping batches
// share results, and positions match inputs.
func TestCacheAlignRelationsBatch(t *testing.T) {
	a, ky, kd := alignerWithParallelism(UBSConfig(), 4)
	c := NewCache(a)
	first, err := c.AlignRelations(batchHeads)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(batchHeads) {
		t.Fatalf("results = %d", len(first))
	}
	spent := ky.Stats().Queries + kd.Stats().Queries

	second, err := c.AlignRelations(batchHeads)
	if err != nil {
		t.Fatal(err)
	}
	if ky.Stats().Queries+kd.Stats().Queries != spent {
		t.Fatal("cached batch issued queries")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached batch differs")
	}
	if dir := find(first[1], dNS+"hasDirector"); dir == nil || !dir.Accepted {
		t.Fatalf("directedBy batch slot wrong: %+v", first[1])
	}
}
