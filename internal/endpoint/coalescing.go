package endpoint

import (
	"context"
	"sync"
	"sync/atomic"

	"sofya/internal/flight"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// Coalescing decorates an Endpoint by singleflighting identical
// in-flight queries: when several goroutines issue the same query
// concurrently, one probe reaches the inner endpoint and every caller
// receives its result. Together with Caching underneath it gives a
// batch of concurrent aligners exactly-once endpoint traffic per
// distinct query.
//
// Flights are keyed by preparedKey, the form Caching uses for its
// entries, which carries the inner endpoint's Name().
//
// Unlike Caching it remembers nothing: once a query completes, the next
// identical call probes again. The shared probe is detached from every
// individual caller's context (context.WithoutCancel), so one caller's
// cancellation or deadline never poisons the others: each caller stops
// waiting when its own context ends, while the probe runs to completion
// for whoever remains. Results are shared between coalesced callers —
// treat rows as read-only, as with any endpoint.
type Coalescing struct {
	innerStats

	// The drain-path singleflight groups.
	sel       flight.Group[string, *sparql.Result]
	ask       flight.Group[string, bool]
	coalesced atomic.Int64

	// smu guards streams: the in-flight shared streams that coalesce
	// concurrent Stream calls of one prepared execution.
	smu     sync.Mutex
	streams map[string]*sharedStream
}

// NewCoalescing wraps inner with in-flight query deduplication.
func NewCoalescing(inner Endpoint) *Coalescing {
	return &Coalescing{innerStats: innerStats{inner}, streams: make(map[string]*sharedStream)}
}

// Name implements Endpoint.
func (c *Coalescing) Name() string { return c.inner.Name() }

// SelectCtx implements Endpoint by SelectText.
func (c *Coalescing) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return SelectText(ctx, c, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (c *Coalescing) AskCtx(ctx context.Context, query string) (bool, error) {
	return AskText(ctx, c, query)
}

// Prepare implements Endpoint: prepared executions singleflight on the
// endpoint name, template source and rendered arguments, sharing the
// group with other prepared handles of the same template.
func (c *Coalescing) Prepare(template string, params ...string) (PreparedQuery, error) {
	inner, err := c.inner.Prepare(template, params...)
	if err != nil {
		return nil, err
	}
	return &coalescingPrepared{c: c, inner: inner, source: template, params: params}, nil
}

type coalescingPrepared struct {
	c      *Coalescing
	inner  PreparedQuery
	source string
	params []string
}

func (p *coalescingPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	key := preparedKey('S', p.c.inner.Name(), p.source, p.params, args)
	res, err, shared := p.c.sel.DoCtx(ctx, key, func() (*sparql.Result, error) {
		return p.inner.SelectCtx(context.WithoutCancel(ctx), args...)
	})
	if shared {
		p.c.coalesced.Add(1)
	}
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}

func (p *coalescingPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	key := preparedKey('A', p.c.inner.Name(), p.source, p.params, args)
	ok, err, shared := p.c.ask.DoCtx(ctx, key, func() (bool, error) {
		return p.inner.AskCtx(context.WithoutCancel(ctx), args...)
	})
	if shared {
		p.c.coalesced.Add(1)
	}
	return ok, err
}

// Stream implements PreparedQuery by broadcasting one inner stream to
// every concurrent identical call: the first caller opens the inner
// stream, rows are buffered as whoever is furthest ahead pulls them,
// and joiners replay the buffered prefix before pulling new rows — so
// all waiters observe identical prefixes while the inner endpoint does
// the work once. A caller already cancelled neither opens nor joins a
// shared stream; past that, the stream is detached from every caller's
// context: each consumer leaves by closing its own Rows, and the inner
// stream closes when the last consumer leaves (early, if none of them
// drained it). Like the drain paths, nothing is remembered: once the
// last consumer closes, the next identical call probes again.
func (p *coalescingPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := preparedKey('S', p.c.inner.Name(), p.source, p.params, args)
	c := p.c
	c.smu.Lock()
	if s, ok := c.streams[key]; ok {
		s.refs++
		c.smu.Unlock()
		c.coalesced.Add(1)
		return &sharedRows{s: s}, nil
	}
	s := newSharedStream(c, key)
	c.streams[key] = s
	c.smu.Unlock()

	inner, err := p.inner.Stream(context.WithoutCancel(ctx), args...)
	s.opened(inner, err)
	if err != nil {
		s.detach()
		return nil, err
	}
	return &sharedRows{s: s}, nil
}

// sharedStream is one in-flight streamed execution shared by all
// coalesced consumers: a grow-only row buffer fed from the inner stream
// by whichever consumer needs a row first.
type sharedStream struct {
	c   *Coalescing
	key string

	mu        sync.Mutex
	cond      *sync.Cond
	inner     Rows
	vars      []string
	ready     bool // opened() ran (inner or error is set)
	producing bool // a consumer is pulling from inner outside mu
	buf       [][]rdf.Term
	done      bool
	err       error
	trunc     bool

	refs int // guarded by c.smu
}

func newSharedStream(c *Coalescing, key string) *sharedStream {
	s := &sharedStream{c: c, key: key, refs: 1}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// opened publishes the inner stream (or the failure to open it) to
// every consumer that joined before the opener finished. A failed open
// is removed from the coalescing table immediately — joiners already
// attached observe the error, but new calls must re-probe the endpoint
// (errors are transient; the drain-path singleflight behaves the same).
func (s *sharedStream) opened(inner Rows, err error) {
	s.mu.Lock()
	if err != nil {
		s.done, s.err = true, err
	} else {
		s.inner = inner
		s.vars = inner.Vars()
	}
	s.ready = true
	s.mu.Unlock()
	s.cond.Broadcast()
	if err != nil {
		s.c.smu.Lock()
		if s.c.streams[s.key] == s {
			delete(s.c.streams, s.key)
		}
		s.c.smu.Unlock()
	}
}

// rowAt returns row i, producing from the inner stream as needed. Only
// one consumer produces at a time; the rest wait and replay.
func (s *sharedStream) rowAt(i int) ([]rdf.Term, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if i < len(s.buf) {
			return s.buf[i], true
		}
		if s.done {
			return nil, false
		}
		if !s.ready || s.producing {
			s.cond.Wait()
			continue
		}
		s.producing = true
		inner := s.inner
		s.mu.Unlock()
		ok := inner.Next()
		s.mu.Lock()
		s.producing = false
		if ok {
			s.buf = append(s.buf, inner.Row())
		} else {
			s.done = true
			s.err = inner.Err()
			s.trunc = inner.Truncated()
		}
		s.cond.Broadcast()
	}
}

// state returns the terminal state, valid once rowAt reported the end.
func (s *sharedStream) state() (err error, trunc bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err, s.trunc
}

// detach drops one consumer; the last one out closes the inner stream
// (aborting it early if nobody drained it) and removes the stream from
// the coalescing table, so the next identical call probes afresh. The
// delete is guarded: an errored stream may already have been replaced
// under the same key, and the replacement must not be removed.
func (s *sharedStream) detach() {
	s.c.smu.Lock()
	s.refs--
	last := s.refs == 0
	if last && s.c.streams[s.key] == s {
		delete(s.c.streams, s.key)
	}
	s.c.smu.Unlock()
	if last && s.inner != nil {
		s.inner.Close()
	}
}

// sharedRows is one consumer's cursor over a sharedStream.
type sharedRows struct {
	s        *sharedStream
	pos      int
	row      []rdf.Term
	err      error
	trunc    bool
	detached bool
}

func (r *sharedRows) Vars() []string {
	s := r.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.ready {
		s.cond.Wait()
	}
	return s.vars
}

func (r *sharedRows) Row() []rdf.Term { return r.row }
func (r *sharedRows) Err() error      { return r.err }
func (r *sharedRows) Truncated() bool { return r.trunc }

func (r *sharedRows) Next() bool {
	if r.detached {
		return false
	}
	row, ok := r.s.rowAt(r.pos)
	if !ok {
		r.err, r.trunc = r.s.state()
		r.row = nil
		r.detached = true
		r.s.detach()
		return false
	}
	r.pos++
	r.row = row
	return true
}

func (r *sharedRows) Close() {
	if r.detached {
		return
	}
	r.detached = true
	r.row = nil
	r.s.detach()
}

var _ Rows = (*sharedRows)(nil)

// Coalesced reports how many calls were served by another caller's
// in-flight query instead of probing the inner endpoint.
func (c *Coalescing) Coalesced() int64 { return c.coalesced.Load() }

var (
	_ Endpoint      = (*Coalescing)(nil)
	_ StatsReporter = (*Coalescing)(nil)
)
