package core

import (
	"context"

	"sofya/internal/flight"
)

// Cache memoizes alignment results so that repeated queries over the
// same relation — the common case at query time — pay the sampling
// cost once per session. It is safe for concurrent use, and concurrent
// misses on the same relation are singleflighted: one caller runs the
// (expensive) alignment while the others wait for its result.
type Cache struct {
	aligner *Aligner
	memo    flight.Memo[string, []Alignment]
}

// NewCache wraps an aligner with memoization.
func NewCache(a *Aligner) *Cache {
	return &Cache{aligner: a}
}

// AlignRelation is AlignRelationContext under context.Background().
func (c *Cache) AlignRelation(r string) ([]Alignment, error) {
	return c.AlignRelationContext(context.Background(), r)
}

// AlignRelationContext returns the memoized alignment for r, computing
// it on first use. Errors are cached too: a failing endpoint will not be
// hammered by retries within a session; call Invalidate to retry. A
// caller whose ctx ends stops waiting with ctx.Err(), which is never
// cached: the alignment completes for whoever asks next (flight.Memo).
func (c *Cache) AlignRelationContext(ctx context.Context, r string) ([]Alignment, error) {
	als, err, _ := c.memo.Get(ctx, r, func(ctx context.Context) ([]Alignment, error) {
		return c.aligner.AlignRelationContext(ctx, r)
	})
	return als, err
}

// AlignRelations is AlignRelationsContext under context.Background().
func (c *Cache) AlignRelations(rs []string) ([][]Alignment, error) {
	return c.AlignRelationsContext(context.Background(), rs)
}

// AlignRelationsContext is the batch variant: it aligns every relation
// in rs through the cache, scheduling up to the aligner's Parallelism
// relations concurrently. Cached relations cost nothing, in-flight ones
// are joined, and the rest compute once each. Results positionally
// match rs; the first error (in rs order) aborts.
func (c *Cache) AlignRelationsContext(ctx context.Context, rs []string) ([][]Alignment, error) {
	return alignEach(ctx, c.aligner.cfg.Parallelism, rs, c.AlignRelationContext)
}

// Invalidate drops the cached result for r (all relations when r is
// empty).
func (c *Cache) Invalidate(r string) {
	if r == "" {
		c.memo.Invalidate()
		return
	}
	c.memo.Invalidate(r)
}

// Len reports how many relations are cached.
func (c *Cache) Len() int { return c.memo.Len() }
