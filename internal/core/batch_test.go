package core

import (
	"reflect"
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
