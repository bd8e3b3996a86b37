package core

import (
	"context"

	"sofya/internal/flight"
)

// AlignRelations is the batch API: it aligns every relation in rs,
// scheduling up to Config.Parallelism relations concurrently, and
// returns one result slice per input relation, positionally matching
// rs. The in-flight relations share the aligner's global admission
// gate, so total endpoint concurrency stays at Parallelism no matter
// how many relations are being aligned at once.
//
// Point the aligner at endpoints decorated with endpoint.Caching and
// the batch shares deduplicated endpoint traffic across relations —
// the concurrent aligners probe overlapping subjects and samples, and
// each distinct query reaches the backing service once. For
// deterministic endpoints (fixed Local seeds) the output is identical
// to calling AlignRelation sequentially, at any Parallelism.
//
// The first error (in rs order) aborts the batch.
func (a *Aligner) AlignRelations(rs []string) ([][]Alignment, error) {
	out := make([][]Alignment, len(rs))
	err := flight.Each(context.Background(), a.cfg.Parallelism, len(rs), func(_ context.Context, i int) error {
		als, err := a.AlignRelation(rs[i])
		if err != nil {
			return err
		}
		out[i] = als
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
