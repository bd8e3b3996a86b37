package core

import (
	"context"
	"sync"

	"sofya/internal/flight"
)

// Cache memoizes AlignRelation results so that repeated queries over
// the same relation — the common case at query time — pay the sampling
// cost once per session. It is safe for concurrent use, and concurrent
// misses on the same relation are singleflighted: one caller runs the
// (expensive) alignment while the others wait for its result.
type Cache struct {
	aligner *Aligner
	group   flight.Group[string, cached]

	mu      sync.Mutex
	results map[string]cached
}

type cached struct {
	als []Alignment
	err error
}

// NewCache wraps an aligner with memoization.
func NewCache(a *Aligner) *Cache {
	return &Cache{aligner: a, results: make(map[string]cached)}
}

// AlignRelation returns the memoized alignment for r, computing it on
// first use. Errors are cached too: a failing endpoint will not be
// hammered by retries within a session; call Invalidate to retry.
func (c *Cache) AlignRelation(r string) ([]Alignment, error) {
	c.mu.Lock()
	if got, ok := c.results[r]; ok {
		c.mu.Unlock()
		return got.als, got.err
	}
	c.mu.Unlock()

	// Miss: compute through the singleflight group so that concurrent
	// misses on the same relation run one alignment. The computation
	// stores its outcome (error included) before releasing the waiters;
	// flightErr is only non-nil if the aligner panicked (the aligner
	// is ctx-less, so there is no caller context to wait under).
	got, flightErr, _ := c.group.DoCtx(context.Background(), r, func() (cached, error) {
		// A flight forgets its key once served: a caller that missed
		// above and got here after an earlier flight finished must find
		// that flight's result, not compute again.
		c.mu.Lock()
		if got, ok := c.results[r]; ok {
			c.mu.Unlock()
			return got, nil
		}
		c.mu.Unlock()
		als, err := c.aligner.AlignRelation(r)
		got := cached{als: als, err: err}
		c.mu.Lock()
		c.results[r] = got
		c.mu.Unlock()
		return got, nil
	})
	if flightErr != nil {
		return nil, flightErr
	}
	return got.als, got.err
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
	c.mu.Lock()
	defer c.mu.Unlock()
	if r == "" {
		c.results = make(map[string]cached)
		return
	}
	delete(c.results, r)
}

// Len reports how many relations are cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}
