package core

import (
	"runtime"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sampling"
)

// TestAllocCeilingAlignRelation guards what one aligned relation
// allocates, in bytes and in objects: the nine relations of the paper
// world, through both aligners, over bare Locals at Parallelism 1 — the
// in-process alignment with nothing between the aligner and the engine.
// Measured at 53.3 KB / 696 objects a relation, after one warm-up pass;
// the ceilings are 1.25 × that. Before the samplers sized their overlap
// rows, sample facts and evidence for what they keep and took their
// bookkeeping from a pool, and before the engine seeded RAND() without
// rendering the query text and planned a one-pattern group without a
// table, the same relations cost 95.0 KB / 1,307 objects.
func TestAllocCeilingAlignRelation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const bytesCeiling, objectsCeiling = 66_600.0, 870.0
	y, d, links := paperWorld()
	cfg := UBSConfig()
	cfg.Parallelism = 1
	ky, kd := endpoint.NewLocal(y, 11), endpoint.NewLocal(d, 22)
	d2y := New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	y2d := New(kd, ky, sampling.LinkView{Links: links, KIsA: false}, cfg)
	pass := func() {
		for _, r := range d2yRelations {
			if _, err := d2y.AlignRelation(yNS + r); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range y2dRelations {
			if _, err := y2d.AlignRelation(dNS + r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // probes prepared, plans and pools settled
	const passes = 20
	relations := float64(passes * (len(d2yRelations) + len(y2dRelations)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range passes {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / relations
	objects := float64(after.Mallocs-before.Mallocs) / relations
	t.Logf("%.0f bytes, %.1f objects a relation", bytes, objects)
	if bytes > bytesCeiling || objects > objectsCeiling {
		t.Errorf("%.0f bytes, %.1f objects a relation; ceilings %.0f and %.0f", bytes, objects, bytesCeiling, objectsCeiling)
	}
}
