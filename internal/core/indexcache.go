package core

import (
	"context"
	"fmt"
	"sync"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/flight"
)

// IndexCache shares candidate-generation indexes across aligners. The
// index over a target inventory is pure function of that inventory and
// the build options, so N aligners pointed at the same target — one per
// serving goroutine, one per experiment arm — have no reason to pay the
// per-relation sampling pass N times. A process-wide cache (handed to
// each aligner via Config.CandidateIndexCache) builds or loads each
// distinct index once; concurrent first requests are singleflighted,
// exactly like Cache does for alignments.
//
// Entries are keyed by target name, sidecar path, and the options
// fingerprint (candidates.Fingerprint — which excludes the build-shape
// Parallelism field, so aligners differing only in parallelism share an
// entry). Errors are cached like results: a target whose inventory
// query fails is not hammered by every aligner in turn; call Invalidate
// to retry. The zero value is ready to use.
type IndexCache struct {
	memo flight.Memo[string, *candidates.Index]

	// Trace, when non-nil, receives printf-style diagnostics about
	// loads, builds and fallbacks. Set it before the first Get.
	Trace func(format string, args ...any)

	mu    sync.Mutex
	stats IndexCacheStats
}

// IndexCacheStats counts how Get calls were served.
type IndexCacheStats struct {
	// Hits are calls answered from memory; Misses are calls that ran
	// the load-or-build path (callers joining an in-flight computation
	// count as neither).
	Hits, Misses int
	// Loaded and Built split the misses by how the index materialized:
	// restored from a sidecar vs built by sampling the target.
	Loaded, Built int
}

// NewIndexCache returns an empty cache. (The zero value works too; the
// constructor exists for symmetry with NewCache.)
func NewIndexCache() *IndexCache { return &IndexCache{} }

// Get returns the candidate index for target under the given options,
// computing it on first use: the target inventory is listed, then the
// sidecar at path is restored if its fingerprint matches, and the index
// is built by sampling otherwise (candidates.LoadOrBuild). An empty
// path always builds. Concurrent first calls for the same key share one
// computation, which runs detached from every caller's cancellation:
// each caller stops waiting when its own ctx ends, the build completes
// for whoever remains, and no caller's ctx.Err() is ever cached.
func (c *IndexCache) Get(ctx context.Context, target endpoint.Endpoint, links candidates.Translator, path string, opt candidates.Options) (*candidates.Index, error) {
	key := fmt.Sprintf("%s\x00%s\x00%016x", target.Name(), path, candidates.Fingerprint(nil, opt))
	ix, err, hit := c.memo.Get(ctx, key, func(ctx context.Context) (*candidates.Index, error) {
		return c.compute(ctx, target, links, path, opt)
	})
	if hit {
		c.note(func(s *IndexCacheStats) { s.Hits++ })
	}
	return ix, err
}

// compute runs the inventory + load-or-build path and keeps the stats.
func (c *IndexCache) compute(ctx context.Context, target endpoint.Endpoint, links candidates.Translator, path string, opt candidates.Options) (*candidates.Index, error) {
	rels, err := candidates.Relations(target)
	if err != nil {
		c.note(func(s *IndexCacheStats) { s.Misses++ })
		return nil, err
	}
	ix, loaded, err := candidates.LoadOrBuild(ctx, path, target, rels, links, opt)
	c.note(func(s *IndexCacheStats) {
		s.Misses++
		switch {
		case err != nil:
		case loaded:
			s.Loaded++
		default:
			s.Built++
		}
	})
	switch {
	case err != nil:
		return nil, err
	case loaded:
		c.tracef("candidates: index for %s restored from %s (%d relations)", target.Name(), path, ix.Len())
	case path != "":
		c.tracef("candidates: sidecar %s unusable or stale, built index for %s (%d relations)", path, target.Name(), ix.Len())
	default:
		c.tracef("candidates: built index for %s (%d relations)", target.Name(), ix.Len())
	}
	if g, d := ix.TruncationStats(); d > 0 {
		c.tracef("candidates: posting cap %d truncated %d grams, dropped %d postings", ix.Options().MaxPostings, g, d)
	}
	return ix, nil
}

func (c *IndexCache) note(f func(*IndexCacheStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

func (c *IndexCache) tracef(format string, args ...any) {
	if c.Trace != nil {
		c.Trace(format, args...)
	}
}

// Stats returns a snapshot of the serving counters.
func (c *IndexCache) Stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Invalidate drops every cached index (and cached error), forcing the
// next Get of each key to recompute.
func (c *IndexCache) Invalidate() { c.memo.Invalidate() }

// Len reports how many distinct indexes (or cached failures) are held.
func (c *IndexCache) Len() int { return c.memo.Len() }
