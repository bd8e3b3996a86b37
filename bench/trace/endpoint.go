package trace

import (
	"context"

	"sofya/internal/endpoint"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// The aligner's probe templates. The sampling ones are exported; the two
// core ones are private constants of internal/core, repeated here so
// spans can be classified from outside (TestClassesCoverAligner fails if
// they drift).
const (
	tmplBetween  = "SELECT ?p WHERE { $x ?p $y }"
	tmplLiterals = "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }"
)

// Classify maps a template source to its probe class.
func Classify(source string) Class {
	switch source {
	case sampling.TmplSample:
		return ClassSample
	case sampling.TmplObjects:
		return ClassObjects
	case sampling.TmplOverlap:
		return ClassOverlap
	case tmplBetween:
		return ClassBetween
	case tmplLiterals:
		return ClassLiterals
	}
	return ClassOther
}

// Endpoint wraps inner so that every execution through it records a
// span at layer. The wrapper is transparent to the optional interfaces
// the program discovers by type assertion: it (and the prepared queries
// it hands out) implement endpoint.StatsReporter, endpoint.StreamBorrower
// and endpoint.KeyedStreamer exactly when the wrapped value does —
// otherwise the traced run would silently take drain/replay fallbacks
// and measure a different program. A nil tracer returns inner itself.
func (t *Tracer) Endpoint(layer Layer, inner endpoint.Endpoint) endpoint.Endpoint {
	if t == nil {
		return inner
	}
	se := &spanEndpoint{t: t, layer: layer, inner: inner}
	if sr, ok := inner.(endpoint.StatsReporter); ok {
		return &spanEndpointStats{spanEndpoint: se, sr: sr}
	}
	return se
}

type spanEndpoint struct {
	t     *Tracer
	layer Layer
	inner endpoint.Endpoint
}

// spanEndpointStats adds StatsReporter for inner values that have it.
type spanEndpointStats struct {
	*spanEndpoint
	sr endpoint.StatsReporter
}

func (e *spanEndpointStats) Stats() endpoint.Stats { return e.sr.Stats() }
func (e *spanEndpointStats) ResetStats()           { e.sr.ResetStats() }

func (e *spanEndpoint) Name() string { return e.inner.Name() }

func (e *spanEndpoint) Select(query string) (*sparql.Result, error) {
	return e.SelectCtx(context.Background(), query)
}

func (e *spanEndpoint) Ask(query string) (bool, error) {
	return e.AskCtx(context.Background(), query)
}

// begin opens a span and logs the execution for the replay rungs.
func (e *spanEndpoint) begin(ctx context.Context, class Class, tmpl int, args []sparql.Arg) (*Span, context.Context) {
	s, cctx := e.t.begin(ctx, e.layer, class)
	// a span whose parent is its op is what the aligner itself asked for
	e.t.logProbe(s.Parent == s.Op, e.layer, Probe{Endpoint: e.inner.Name(), Template: tmpl, Args: args})
	return s, cctx
}

func (e *spanEndpoint) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	s, cctx := e.begin(ctx, ClassOther, e.t.template(query, nil), nil)
	res, err := e.inner.SelectCtx(cctx, query)
	if res != nil {
		s.Rows = int32(len(res.Rows))
	}
	e.t.close(s)
	return res, err
}

func (e *spanEndpoint) AskCtx(ctx context.Context, query string) (bool, error) {
	s, cctx := e.begin(ctx, ClassOther, e.t.template(query, nil), nil)
	ok, err := e.inner.AskCtx(cctx, query)
	e.t.close(s)
	return ok, err
}

func (e *spanEndpoint) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.inner.Prepare(template, params...)
	if err != nil {
		return nil, err
	}
	sp := &spanPrepared{e: e, inner: pq, tmpl: e.t.template(template, params), class: Classify(template)}
	sp.b, _ = pq.(endpoint.StreamBorrower)
	sp.k, _ = pq.(endpoint.KeyedStreamer)
	switch {
	case sp.b != nil && sp.k != nil:
		return spanPreparedBK{sp}, nil
	case sp.b != nil:
		return spanPreparedB{sp}, nil
	case sp.k != nil:
		return spanPreparedK{sp}, nil
	}
	return sp, nil
}

// spanPrepared is the base prepared wrapper. b and k are the inner
// handle's optional streaming interfaces (nil when it has none); the
// B/K/BK variants export exactly the ones that are set, because the
// program finds them by type assertion.
type spanPrepared struct {
	e     *spanEndpoint
	inner endpoint.PreparedQuery
	b     endpoint.StreamBorrower
	k     endpoint.KeyedStreamer
	tmpl  int
	class Class
}

type (
	spanPreparedB  struct{ *spanPrepared }
	spanPreparedK  struct{ *spanPrepared }
	spanPreparedBK struct{ *spanPrepared }
)

func (p *spanPrepared) Select(args ...sparql.Arg) (*sparql.Result, error) {
	return p.SelectCtx(context.Background(), args...)
}

func (p *spanPrepared) Ask(args ...sparql.Arg) (bool, error) {
	return p.AskCtx(context.Background(), args...)
}

func (p *spanPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	s, cctx := p.e.begin(ctx, p.class, p.tmpl, args)
	res, err := p.inner.SelectCtx(cctx, args...)
	if res != nil {
		s.Rows = int32(len(res.Rows))
	}
	p.e.t.close(s)
	return res, err
}

func (p *spanPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	s, cctx := p.e.begin(ctx, p.class, p.tmpl, args)
	ok, err := p.inner.AskCtx(cctx, args...)
	p.e.t.close(s)
	return ok, err
}

// stream opens a streamed execution; its span ends when the returned
// Rows is exhausted or closed.
func (p *spanPrepared) stream(ctx context.Context, args []sparql.Arg, open func(ctx context.Context) (endpoint.Rows, error)) (endpoint.Rows, error) {
	s, cctx := p.e.begin(ctx, p.class, p.tmpl, args)
	s.Stream = true
	rows, err := open(cctx)
	if err != nil {
		p.e.t.close(s)
		return nil, err
	}
	return &spanRows{Rows: rows, t: p.e.t, s: s}, nil
}

func (p *spanPrepared) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.stream(ctx, args, func(ctx context.Context) (endpoint.Rows, error) {
		return p.inner.Stream(ctx, args...)
	})
}

func (p *spanPrepared) streamBorrowed(ctx context.Context, args []sparql.Arg) (endpoint.Rows, error) {
	return p.stream(ctx, args, func(ctx context.Context) (endpoint.Rows, error) {
		return p.b.StreamBorrowed(ctx, args...)
	})
}

func (p *spanPrepared) streamKeyed(ctx context.Context, orderText string, args []sparql.Arg) (endpoint.Rows, error) {
	return p.stream(ctx, args, func(ctx context.Context) (endpoint.Rows, error) {
		return p.k.StreamKeyed(ctx, orderText, args...)
	})
}

func (p spanPreparedB) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.streamBorrowed(ctx, args)
}

func (p spanPreparedK) StreamKeyed(ctx context.Context, orderText string, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.streamKeyed(ctx, orderText, args)
}

func (p spanPreparedBK) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.streamBorrowed(ctx, args)
}

func (p spanPreparedBK) StreamKeyed(ctx context.Context, orderText string, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.streamKeyed(ctx, orderText, args)
}

// spanRows ends its span at exhaustion or Close and counts the rows
// pulled. It forwards attached ORDER BY keys like the program's own
// stream decorators (Admission, cluster): an empty AttachedKeys means
// the inner stream carried none.
type spanRows struct {
	endpoint.Rows
	t    *Tracer
	s    *Span
	done bool
}

func (r *spanRows) Next() bool {
	if r.Rows.Next() {
		r.s.Rows++
		return true
	}
	r.finish(false)
	return false
}

func (r *spanRows) Close() {
	r.Rows.Close()
	r.finish(true)
}

func (r *spanRows) finish(early bool) {
	if r.done {
		return
	}
	r.done = true
	r.s.Early = early
	r.t.close(r.s)
}

func (r *spanRows) AttachedKeys() []int {
	if kr, ok := r.Rows.(endpoint.KeyedRows); ok {
		return kr.AttachedKeys()
	}
	return nil
}

func (r *spanRows) RowKeys() []sparql.Value {
	if kr, ok := r.Rows.(endpoint.KeyedRows); ok {
		return kr.RowKeys()
	}
	return nil
}

var (
	_ endpoint.Endpoint       = (*spanEndpoint)(nil)
	_ endpoint.StatsReporter  = (*spanEndpointStats)(nil)
	_ endpoint.PreparedQuery  = (*spanPrepared)(nil)
	_ endpoint.StreamBorrower = spanPreparedB{}
	_ endpoint.KeyedStreamer  = spanPreparedK{}
	_ endpoint.StreamBorrower = spanPreparedBK{}
	_ endpoint.KeyedStreamer  = spanPreparedBK{}
	_ endpoint.KeyedRows      = (*spanRows)(nil)
)
