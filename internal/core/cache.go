package core

import (
	"context"

	"sofya/internal/flight"
)

// Cache memoizes AlignRelation results so that repeated queries over
// the same relation — the common case at query time — pay the sampling
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

// AlignRelation returns the memoized alignment for r, computing it on
// first use. Errors are cached too: a failing endpoint will not be
// hammered by retries within a session; call Invalidate to retry.
func (c *Cache) AlignRelation(r string) ([]Alignment, error) {
	// The aligner is ctx-less, so there is no caller context to wait
	// under.
	als, err, _ := c.memo.Get(context.Background(), r, func(context.Context) ([]Alignment, error) {
		return c.aligner.AlignRelation(r)
	})
	return als, err
}

// AlignRelations is the batch variant: it aligns every relation in rs
// through the cache, scheduling up to the aligner's Parallelism
// relations concurrently. Cached relations cost nothing, in-flight ones
// are joined, and the rest compute once each. Results positionally
// match rs; the first error (in rs order) aborts.
func (c *Cache) AlignRelations(rs []string) ([][]Alignment, error) {
	out := make([][]Alignment, len(rs))
	err := runIndexed(c.aligner.cfg.Parallelism, len(rs), func(i int) error {
		als, err := c.AlignRelation(rs[i])
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
