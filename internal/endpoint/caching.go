package endpoint

import (
	"cmp"
	"container/list"
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"sofya/internal/flight"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// DefaultCacheSize is the LRU bound used when NewCaching is given a
// non-positive capacity.
const DefaultCacheSize = 4096

// CacheStats counts a Caching decorator's activity.
type CacheStats struct {
	// Hits counts calls answered from a stored result, Misses the calls
	// that ran the inner execution; with Caching.Coalesced — the calls
	// that joined one in flight — they add up to the calls made.
	Hits, Misses int
	// Evictions counts entries dropped by the LRU bound.
	Evictions int
}

// Caching is the one memo decorator: each distinct probe of a batch
// alignment, where concurrent relations send the same ones, reaches the
// inner endpoint once. Concurrent identical calls (by preparedKey,
// rendered once per call) share one inner execution — a drain through a
// flight.Group, a stream through one shared entry — detached from every
// caller's context: a caller that gives up stops waiting, and the probe
// completes for the others and for the memo. A successful result, or
// the prefix a stream drained before its last consumer left, stays in an
// LRU of maxEntries; errors are never kept. Results are shared: treat
// rows as read-only. Caching assumes the inner endpoint answers a query
// identically every time, which Local guarantees (its RAND() streams are
// derived per query text).
type Caching struct {
	innerStats
	// max bounds the LRU; 0 — NewCoalescing over anything but a Caching
	// — keeps nothing once an execution's last caller leaves.
	max int

	drains    flight.Group[string, sparql.Result] // SelectCtx and AskCtx in flight
	coalesced atomic.Int64

	mu      sync.Mutex
	entries map[string]*list.Element
	order   list.List              // front = most recently used
	streams map[string]*memoStream // streams in flight
	stats   CacheStats
}

// Coalescing is Caching, under the name bench/ builds its stack with
// (NewCoalescing).
type Coalescing = Caching

type cacheEntry struct {
	key string
	res sparql.Result
	// complete marks a fully drained result; a stream closed early stores
	// its drained prefix, which SelectCtx and AskCtx treat as a miss.
	complete bool
}

// NewCaching wraps inner with a memo of at most maxEntries results
// (DefaultCacheSize when maxEntries <= 0).
func NewCaching(inner Endpoint, maxEntries int) *Caching {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	return &Caching{innerStats: innerStats{inner}, max: maxEntries}
}

// NewCoalescing returns inner itself when it is a *Caching, which already
// shares in-flight executions, and otherwise a memo over inner that
// shares them but keeps nothing once an execution's last caller leaves.
func NewCoalescing(inner Endpoint) *Coalescing {
	if c, ok := inner.(*Caching); ok {
		return c
	}
	return &Caching{innerStats: innerStats{inner}}
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

// Prepare implements Endpoint: the executions of every handle share one
// memo, so identical prepared probes — from any handle or pipeline stage
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

func (p *cachingPrepared) key(form byte, args []sparql.Arg) string {
	return preparedKey(form, p.c.inner.Name(), p.source, p.params, args)
}

// preparedKey renders the memo's key for one execution of a prepared
// query: the endpoint name, the template source, its parameter
// declaration order, and the canonical argument renderings. Two prepared
// handles over the same endpoint, template and parameter list — even
// from different decorator instances or pipeline stages — collide on
// identical arguments; the parameter names keep handles that declare the
// same text with a different parameter order (different semantics)
// apart, and the endpoint name keeps identical templates against
// different endpoints (the shards of a federation group) from answering
// each other.
func preparedKey(form byte, name, source string, params []string, args []sparql.Arg) string {
	var sb strings.Builder
	sb.Grow(len(name) + len(source) + 16*(len(args)+len(params)) + 5)
	sb.WriteByte('P')
	sb.WriteByte(form)
	sb.WriteByte(0)
	sb.WriteString(name)
	sb.WriteByte(0)
	sb.WriteString(source)
	for _, p := range params {
		sb.WriteByte(0x1e)
		sb.WriteString(p)
	}
	for _, a := range args {
		sb.WriteByte(0x1f)
		sb.WriteString(a.Key())
	}
	return sb.String()
}

func (p *cachingPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	res, err := p.drain(ctx, 'S', args)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

func (p *cachingPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	res, err := p.drain(ctx, 'A', args)
	return res.Ask, err
}

// drain answers a SelectCtx ('S') or AskCtx ('A') execution from a
// complete stored result (a hit, which takes no flight), by joining the
// identical flight (coalesced), or as its leader — which looks again
// first, since a flight forgets its key once served: the result of one
// that finished meanwhile is a hit, not a second run.
func (p *cachingPrepared) drain(ctx context.Context, form byte, args []sparql.Arg) (sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return sparql.Result{}, err
	}
	c, key := p.c, p.key(form, args)
	if res, ok := c.lookup(key, false); ok {
		return res, nil
	}
	if ctx.Done() != nil {
		// A leader whose context ends leaves its flight running: the
		// flight reads a copy of the arguments, not the caller's.
		args = slices.Clone(args)
	}
	res, err, shared := c.drains.DoCtx(ctx, key, func() (res sparql.Result, err error) {
		if res, ok := c.lookup(key, true); ok {
			return res, nil
		}
		ctx := context.WithoutCancel(ctx)
		if form == 'A' {
			res.Ask, err = p.inner.AskCtx(ctx, args...)
		} else {
			var r *sparql.Result
			if r, err = p.inner.SelectCtx(ctx, args...); err == nil {
				res = *r
			}
		}
		if err == nil {
			c.mu.Lock()
			c.store(key, res, true)
			c.mu.Unlock()
		}
		return res, err
	})
	if shared {
		c.coalesced.Add(1)
	}
	return res, err
}

// lookup returns the complete result stored under key, counting a hit;
// finding a prefix or nothing counts a miss when miss is set.
func (c *Caching) lookup(key string, miss bool) (sparql.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.stored(key); e != nil && e.complete {
		c.stats.Hits++
		return e.res, true
	}
	if miss {
		c.stats.Misses++
	}
	return sparql.Result{}, false
}

// stored returns the entry under key, now the most recently used, or
// nil. c.mu is held.
func (c *Caching) stored(key string) *cacheEntry {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// store keeps a successful result, evicting the least recently used
// entry past the bound. An entry is only ever upgraded — to a complete
// result, or to a longer prefix — never replaced by less data; the inner
// endpoint answers identical queries identically, so every store agrees
// on the rows they share. c.mu is held.
func (c *Caching) store(key string, res sparql.Result, complete bool) {
	if c.max == 0 {
		return
	}
	if e := c.stored(key); e != nil {
		if !e.complete && (complete || len(res.Rows) > len(e.res.Rows)) {
			e.res, e.complete = res, complete
		}
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res, complete: complete})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Stream implements PreparedQuery. A complete stored result replays from
// memory (a hit); a call that finds the identical stream in flight joins
// it (coalesced). Otherwise the call starts the entry, over a stored
// prefix (a hit) that only re-opens the inner stream once a consumer
// pulls past it, or over an inner stream opened now (a miss). A caller
// already cancelled neither starts nor joins a stream; past that, each
// consumer leaves by closing its own Rows.
func (p *cachingPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, key := p.c, p.key('S', args)
	c.mu.Lock()
	e := c.stored(key)
	if e != nil && e.complete {
		c.stats.Hits++
		res := e.res
		c.mu.Unlock()
		return ReplayRows(&res), nil
	}
	if s, ok := c.streams[key]; ok {
		s.refs++
		c.mu.Unlock()
		c.coalesced.Add(1)
		return &memoRows{s: s}, nil
	}
	s := &memoStream{p: p, key: key, ctx: context.WithoutCancel(ctx), args: slices.Clone(args), refs: 1}
	s.cond.L = &s.mu
	if e != nil {
		c.stats.Hits++
		s.vars, s.rows, s.ready = e.res.Vars, slices.Clip(e.res.Rows), true
	} else {
		c.stats.Misses++
	}
	if c.streams == nil {
		c.streams = make(map[string]*memoStream)
	}
	c.streams[key] = s
	c.mu.Unlock()

	if e == nil {
		inner, err := s.p.inner.Stream(s.ctx, s.args...)
		s.mu.Lock()
		if s.ready, s.done, s.err = true, err != nil, err; err == nil {
			s.inner, s.vars = inner, inner.Vars()
		}
		s.mu.Unlock()
		s.cond.Broadcast()
		if err != nil {
			s.leave()
			return nil, err
		}
	}
	return &memoRows{s: s}, nil
}

// errPrefixLost ends a stream whose re-opened inner stream answered
// fewer rows than the prefix it continues.
var errPrefixLost = errors.New("endpoint: a re-opened stream ended inside the rows it already answered")

// memoStream is one streamed execution shared by every concurrent
// identical call: a grow-only row buffer — what its consumers replay and
// what is kept when the last of them leaves — fed from the inner stream
// by whichever consumer needs a row first.
type memoStream struct {
	p    *cachingPrepared
	key  string
	ctx  context.Context // detached from every caller
	args []sparql.Arg    // the starter's, copied: a re-open outlives its call

	mu        sync.Mutex
	cond      sync.Cond
	inner     Rows // nil until opened; an entry over a prefix opens on demand
	vars      []string
	ready     bool // vars are known: opened, failed, or over a prefix
	producing bool // a consumer is pulling from inner outside mu
	rows      [][]rdf.Term
	done      bool // exhausted or failed
	err       error
	trunc     bool

	refs int // guarded by c.mu
}

// next advances r to its next row: a buffered one, or one r pulls from
// the inner stream — re-opened and fast-forwarded over the buffer first,
// if none is open — while the other consumers wait.
func (s *memoStream) next(r *memoRows) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if r.pos < len(s.rows) {
			r.row = s.rows[r.pos]
			r.pos++
			return true
		}
		if s.done {
			r.row, r.err, r.trunc = nil, s.err, s.trunc
			return false
		}
		if !s.ready || s.producing {
			s.cond.Wait()
			continue
		}
		s.producing = true
		inner, skip := s.inner, len(s.rows)
		s.mu.Unlock()
		var err error
		if inner == nil {
			inner, err = s.reopen(skip)
		}
		ok := err == nil && inner.Next()
		s.mu.Lock()
		s.producing, s.inner = false, inner
		switch {
		case ok:
			s.rows = append(s.rows, inner.Row())
		case err != nil:
			s.done, s.err = true, err
		default:
			s.done, s.err, s.trunc = true, inner.Err(), inner.Truncated()
		}
		s.cond.Broadcast()
	}
}

func (s *memoStream) reopen(skip int) (Rows, error) {
	inner, err := s.p.inner.Stream(s.ctx, s.args...)
	if err != nil {
		return nil, err
	}
	for ; skip > 0; skip-- {
		if !inner.Next() {
			inner.Close()
			return nil, cmp.Or(inner.Err(), errPrefixLost)
		}
	}
	return inner, nil
}

// leave drops one consumer. A failed entry leaves the in-flight table at
// once, so the next call starts afresh; the last consumer out takes it
// off, closes the inner stream (early, if nobody drained it) and keeps
// the complete result, or the prefix, or nothing after an error.
func (s *memoStream) leave() {
	c := s.p.c
	c.mu.Lock()
	s.mu.Lock()
	s.refs--
	if (s.refs == 0 || s.err != nil) && c.streams[s.key] == s {
		delete(c.streams, s.key)
	}
	var inner Rows
	if s.refs == 0 {
		inner = s.inner
		if s.err == nil && (len(s.rows) > 0 || s.done) {
			c.store(s.key, sparql.Result{Vars: s.vars, Rows: s.rows, Truncated: s.trunc}, s.done)
		}
	}
	s.mu.Unlock()
	c.mu.Unlock()
	if inner != nil {
		inner.Close()
	}
}

// memoRows is one consumer's cursor over a memoStream.
type memoRows struct {
	s     *memoStream
	pos   int
	row   []rdf.Term
	err   error
	trunc bool
	left  bool
}

func (r *memoRows) Vars() []string {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.ready {
		s.cond.Wait()
	}
	return s.vars
}

func (r *memoRows) Row() []rdf.Term { return r.row }
func (r *memoRows) Err() error      { return r.err }
func (r *memoRows) Truncated() bool { return r.trunc }

func (r *memoRows) Next() bool {
	if !r.left && r.s.next(r) {
		return true
	}
	r.Close()
	return false
}

func (r *memoRows) Close() {
	if !r.left {
		r.left, r.row = true, nil
		r.s.leave()
	}
}

// CacheStats returns the decorator's own hit/miss/eviction counters.
func (c *Caching) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Coalesced reports how many calls joined an identical execution in
// flight instead of running their own.
func (c *Caching) Coalesced() int64 { return c.coalesced.Load() }

// Len reports how many results are currently cached.
func (c *Caching) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Purge drops every cached result (counters keep running; a stream in
// flight keeps what it answered when its last consumer leaves).
func (c *Caching) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = nil
	c.order.Init()
}

var (
	_ Endpoint      = (*Caching)(nil)
	_ StatsReporter = (*Caching)(nil)
	_ Rows          = (*memoRows)(nil)
)
