package endpoint

import (
	"container/list"
	"context"
	"sync"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// DefaultCacheSize is the LRU bound used when NewCaching is given a
// non-positive capacity.
const DefaultCacheSize = 4096

// CacheStats counts a Caching decorator's activity.
type CacheStats struct {
	// Hits and Misses count lookups served from / past the cache.
	Hits, Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
}

// Caching decorates an Endpoint with an LRU memo of successful SELECT
// and ASK results, keyed by template and arguments. Identical queries —
// the dominant traffic of a batch alignment, where many relations probe
// the same subjects and samples — reach the inner endpoint once.
//
// Errors are never cached, so quota rejections and transient failures
// are retried on the next call. Cached results are shared between
// callers: treat a returned Result's rows as read-only, exactly as with
// an undecorated endpoint.
//
// Caching assumes the inner endpoint answers a given query identically
// every time, which Local guarantees (its RAND() streams are derived
// per query text). It is safe for concurrent use; to also deduplicate
// concurrent identical misses, stack a Coalescing decorator on top.
type Caching struct {
	innerStats
	max int

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   CacheStats
}

type cacheEntry struct {
	key string
	res sparql.Result
	// complete marks a fully drained result. Streamed executions that
	// were closed early store their drained prefix with complete=false:
	// a later identical stream replays the prefix and only re-probes
	// the inner endpoint if its consumer pulls past it, while the
	// drain-everything paths (SelectCtx/AskCtx) treat prefixes as misses.
	complete bool
}

// NewCaching wraps inner with an LRU of at most maxEntries results
// (DefaultCacheSize when maxEntries <= 0).
func NewCaching(inner Endpoint, maxEntries int) *Caching {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Caching{
		innerStats: innerStats{inner},
		max:        maxEntries,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
	}
}

// Name implements Endpoint.
func (c *Caching) Name() string { return c.inner.Name() }

// SelectCtx implements Endpoint by SelectText.
func (c *Caching) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return SelectText(ctx, c, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (c *Caching) AskCtx(ctx context.Context, query string) (bool, error) {
	return AskText(ctx, c, query)
}

// lookup returns a copy of the cached result and bumps its recency.
// Only complete results qualify — the drain-everything paths must never
// serve a stream's stored prefix.
func (c *Caching) lookup(key string) (*sparql.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || !el.Value.(*cacheEntry).complete {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	return &res, true
}

// lookupPrefix returns the cached entry for a streamed execution: the
// drained prefix (possibly the complete result) to replay. The rows
// slice is shared read-only with the cache.
func (c *Caching) lookupPrefix(key string) (res sparql.Result, complete, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.stats.Misses++
		return sparql.Result{}, false, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.res, e.complete, true
}

// store inserts a successful result, evicting the least recently used
// entry past the bound. An existing entry is only ever upgraded — to a
// complete result, or to a longer drained prefix — never replaced by
// less data; the inner endpoint answers identical queries identically,
// so concurrent stores agree on every shared row.
func (c *Caching) store(key string, res sparql.Result, complete bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.complete || (!complete && len(res.Rows) <= len(e.res.Rows)) {
			c.order.MoveToFront(el)
			return
		}
		e.res, e.complete = res, complete
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, complete: complete})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Prepare implements Endpoint: prepared executions flow through the
// same LRU, keyed by template, parameter order and rendered arguments,
// so identical prepared probes — from any handle or pipeline stage
// sharing the template — reach the inner endpoint once.
func (c *Caching) Prepare(template string, params ...string) (PreparedQuery, error) {
	inner, err := c.inner.Prepare(template, params...)
	if err != nil {
		return nil, err
	}
	return &cachingPrepared{c: c, inner: inner, source: template, params: params}, nil
}

type cachingPrepared struct {
	c      *Caching
	inner  PreparedQuery
	source string
	params []string
}

func (p *cachingPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	key := preparedKey('S', p.c.inner.Name(), p.source, p.params, args)
	if res, ok := p.c.lookup(key); ok {
		return res, nil
	}
	res, err := p.inner.SelectCtx(ctx, args...)
	if err != nil {
		return nil, err
	}
	p.c.store(key, *res, true)
	out := *res
	return &out, nil
}

func (p *cachingPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	key := preparedKey('A', p.c.inner.Name(), p.source, p.params, args)
	if res, ok := p.c.lookup(key); ok {
		return res.Ask, nil
	}
	ok, err := p.inner.AskCtx(ctx, args...)
	if err != nil {
		return false, err
	}
	p.c.store(key, sparql.Result{Ask: ok}, true)
	return ok, nil
}

// Stream implements PreparedQuery with prefix-aware caching. A complete
// cached result replays from memory. A cached prefix — stored by an
// earlier identical stream that was closed early — replays without
// touching the inner endpoint, and only if the consumer pulls past it
// does the stream re-issue the inner query, fast-forward over the
// prefix (the inner endpoint answers identically every time), and
// continue. Whatever this stream drains is stored back, upgrading the
// entry: repeated identical probes that stop at the same point never
// reach the inner endpoint again.
func (p *cachingPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	key := preparedKey('S', p.c.inner.Name(), p.source, p.params, args)
	if res, complete, ok := p.c.lookupPrefix(key); ok {
		if complete {
			return ReplayRows(&res), nil
		}
		return &cachingRows{
			c: p.c, key: key, vars: res.Vars, prefix: res.Rows,
			open: func() (Rows, error) { return p.inner.Stream(ctx, args...) },
		}, nil
	}
	inner, err := p.inner.Stream(ctx, args...)
	if err != nil {
		return nil, err
	}
	return &cachingRows{c: p.c, key: key, vars: inner.Vars(), inner: inner}, nil
}

// cachingRows tees a streamed execution into the cache: it replays the
// stored prefix first, continues from the inner endpoint on demand, and
// stores the drained prefix (complete, when exhausted) on finish.
type cachingRows struct {
	c      *Caching
	key    string
	vars   []string
	prefix [][]rdf.Term // cached rows to replay before touching inner
	pos    int
	drain  [][]rdf.Term // rows observed by this stream, prefix included
	inner  Rows
	open   func() (Rows, error) // lazily opens the continuation
	row    []rdf.Term
	err    error
	trunc  bool
	done   bool
}

func (r *cachingRows) Vars() []string  { return r.vars }
func (r *cachingRows) Row() []rdf.Term { return r.row }
func (r *cachingRows) Err() error      { return r.err }
func (r *cachingRows) Truncated() bool { return r.trunc }

func (r *cachingRows) Next() bool {
	if r.done {
		return false
	}
	if r.pos < len(r.prefix) {
		r.row = r.prefix[r.pos]
		r.pos++
		return true
	}
	if r.inner == nil {
		if r.open == nil || !r.openContinuation() {
			return false
		}
	}
	if !r.inner.Next() {
		r.err = r.inner.Err()
		r.trunc = r.inner.Truncated()
		r.finish(r.err == nil)
		return false
	}
	r.row = r.inner.Row()
	r.drain = append(r.drain, r.row)
	r.pos++
	return true
}

// openContinuation re-issues the inner stream and fast-forwards over
// the already-replayed prefix.
func (r *cachingRows) openContinuation() bool {
	inner, err := r.open()
	if err != nil {
		r.err = err
		r.finish(false)
		return false
	}
	r.inner = inner
	r.drain = append(make([][]rdf.Term, 0, len(r.prefix)+8), r.prefix...)
	for i := 0; i < len(r.prefix); i++ {
		if !inner.Next() {
			// the inner result ended inside the cached prefix — it must
			// have been produced by a different endpoint state; end the
			// stream without storing anything.
			r.err = inner.Err()
			r.drain = nil
			r.finish(false)
			return false
		}
	}
	return true
}

func (r *cachingRows) Close() {
	if !r.done {
		r.finish(false)
	}
}

// finish closes the continuation and stores this stream's drained rows:
// the complete result when the inner stream was exhausted cleanly, the
// prefix otherwise. Errored streams store nothing new.
func (r *cachingRows) finish(complete bool) {
	if r.done {
		return
	}
	r.done = true
	r.row = nil
	if r.inner != nil {
		r.inner.Close()
	}
	if r.err == nil && (len(r.drain) > 0 || complete) {
		r.c.store(r.key, sparql.Result{Vars: r.vars, Rows: r.drain, Truncated: r.trunc}, complete)
	}
}

var _ Rows = (*cachingRows)(nil)

// CacheStats returns the decorator's own hit/miss/eviction counters.
func (c *Caching) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len reports how many results are currently cached.
func (c *Caching) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached result (counters keep running).
func (c *Caching) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*list.Element)
	c.order = list.New()
}

var (
	_ Endpoint      = (*Caching)(nil)
	_ StatsReporter = (*Caching)(nil)
)
