package shard

import (
	"context"
	"fmt"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// prepared.go is the fan-out seam: a template prepares once per shard —
// in its original form for routed executions and ASK probes, and in its
// pushdown form for merged ones — and every execution binds arguments
// per shard. Which shard(s) run is decided per call when the routing
// subject is itself a parameter.

// groupPrepared is the Group's PreparedQuery.
type groupPrepared struct {
	g      *Group
	tmpl   *sparql.Template
	params []string
	shape  sparql.ShardShape
	strat  strategy
	form   sparql.Form

	distinct bool
	limit    int // static LIMIT (-1 when none or parameterized)
	offset   int
	limitIdx int // param index of LIMIT $n, or -1
	routeIdx int // param index of the routing subject, or -1
	routeTo  int // static routing shard (concrete subject), or -1
	projVars []string

	orig []endpoint.PreparedQuery // per shard, original template
	push []endpoint.PreparedQuery // per shard, pushdown template (fan-out SELECT)
	// pushMap maps pushdown argument positions to original ones;
	// pushAdjustLimit marks that the pushdown's LIMIT argument must be
	// offset+limit (unordered limit pushdown).
	pushMap         []int
	pushAdjustLimit bool
}

// prepare builds the per-shard handles for a template.
func (g *Group) prepare(template string, params []string) (*groupPrepared, error) {
	tmpl, err := sparql.ParseTemplate(template, params...)
	if err != nil {
		return nil, err
	}
	q := tmpl.Query()
	isParam := func(name string) bool {
		for _, p := range params {
			if p == name {
				return true
			}
		}
		return false
	}
	shape := sparql.AnalyzeShard(q, isParam)
	strat, err := classify(q, shape)
	if err != nil {
		return nil, err
	}

	p := &groupPrepared{
		g:        g,
		tmpl:     tmpl,
		params:   append([]string(nil), params...),
		shape:    shape,
		strat:    strat,
		form:     q.Form,
		distinct: q.Distinct,
		limit:    q.Limit,
		offset:   q.Offset,
		limitIdx: -1,
		routeIdx: -1,
		routeTo:  -1,
		projVars: q.Vars,
	}
	if q.LimitVar != "" {
		p.limit = -1
	}
	for i, name := range params {
		if tmpl.IntParam(i) {
			p.limitIdx = i
		}
		if name == shape.SubjectParam {
			p.routeIdx = i
		}
	}
	if !shape.Subject.IsZero() {
		p.routeTo = kb.SubjectShard(shape.Subject, len(g.shards))
	}

	// Original-template handles serve routed executions and ASK probes;
	// fan-out SELECTs only ever run their pushdown form, and a constant
	// routing subject only ever runs on its one shard, so skip the
	// per-shard compilations that would never be used.
	if strat == stratRoute || q.Form == sparql.AskForm {
		p.orig = make([]endpoint.PreparedQuery, len(g.shards))
		for i, sh := range g.shards {
			if p.routeTo >= 0 && i != p.routeTo {
				continue
			}
			if p.orig[i], err = sh.Prepare(template, params...); err != nil {
				return nil, err
			}
		}
	}

	if strat != stratRoute && q.Form == sparql.SelectForm {
		pq := pushdownQuery(q, strat)
		var pushParams []string
		for i, name := range params {
			if tmpl.IntParam(i) && pq.LimitVar == "" {
				continue // the pushdown stripped LIMIT $name
			}
			pushParams = append(pushParams, name)
			p.pushMap = append(p.pushMap, i)
		}
		pushTmpl, err := sparql.TemplateFromQuery(pq, pushParams...)
		if err != nil {
			return nil, fmt.Errorf("shard: deriving pushdown template: %w", err)
		}
		p.pushAdjustLimit = pq.LimitVar != ""
		p.push = make([]endpoint.PreparedQuery, len(g.shards))
		for i, sh := range g.shards {
			if p.push[i], err = sh.Prepare(pushTmpl.Source(), pushParams...); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// validateArgs mirrors the per-shard handles' argument validation for
// paths that dispatch before any shard sees the arguments.
func (p *groupPrepared) validateArgs(args []sparql.Arg) error {
	if len(args) != len(p.params) {
		return fmt.Errorf("shard: prepared query needs %d args, got %d", len(p.params), len(args))
	}
	for i, a := range args {
		if n, isInt := a.Int(); isInt != p.tmpl.IntParam(i) {
			return fmt.Errorf("shard: prepared arg %d has the wrong kind", i)
		} else if isInt && n < 0 {
			return fmt.Errorf("shard: prepared arg %d: negative LIMIT", i)
		}
	}
	return nil
}

// routeShard resolves the executing shard of a routed call.
func (p *groupPrepared) routeShard(args []sparql.Arg) (int, error) {
	if p.routeTo >= 0 {
		return p.routeTo, nil
	}
	t, ok := args[p.routeIdx].Term()
	if !ok {
		return 0, fmt.Errorf("shard: routing parameter $%s is not a term", p.params[p.routeIdx])
	}
	return kb.SubjectShard(t, len(p.g.shards)), nil
}

// pushArgs derives the pushdown handles' arguments from the original
// ones, folding the merge-point OFFSET into a pushed LIMIT.
func (p *groupPrepared) pushArgs(args []sparql.Arg) []sparql.Arg {
	out := make([]sparql.Arg, len(p.pushMap))
	for j, oi := range p.pushMap {
		a := args[oi]
		if p.pushAdjustLimit && oi == p.limitIdx {
			n, _ := a.Int()
			a = sparql.IntArg(p.offset + n)
		}
		out[j] = a
	}
	return out
}

// effective returns the merge-point LIMIT and OFFSET of one execution.
func (p *groupPrepared) effective(args []sparql.Arg) (limit, offset int) {
	limit = p.limit
	if p.limitIdx >= 0 {
		limit, _ = args[p.limitIdx].Int()
	}
	return limit, p.offset
}

func (p *groupPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	if p.form != sparql.SelectForm {
		return nil, fmt.Errorf("shard: Select needs a SELECT query")
	}
	if err := p.validateArgs(args); err != nil {
		return nil, err
	}
	if p.strat == stratRoute {
		i, err := p.routeShard(args)
		if err != nil {
			return nil, err
		}
		res, err := p.orig[i].SelectCtx(ctx, args...)
		if err != nil {
			return nil, err
		}
		return capResult(res, p.g.maxRows), nil
	}
	if p.strat == stratMergeOrdered {
		rows, err := p.streamOrdered(ctx, args)
		if err != nil {
			return nil, err
		}
		return drainRows(rows)
	}
	sources, err := p.drain(ctx, args)
	if err != nil {
		return nil, err
	}
	limit, offset := p.effective(args)
	return drainRows(newFanoutRows(p.projVars, p.puller(sources), p.distinct, offset, limit, p.g.maxRows))
}

// groupBatched is the handle of a group whose shards take groups of
// streams — remote ones, where a group saves requests. Only such a group
// is an endpoint.BatchStreamer: an in-process one has none to save, keeps
// its ordered merges' borrowed streams, and runs a group's tuples one
// after the other.
type groupBatched struct{ *groupPrepared }

// StreamBatch implements endpoint.BatchStreamer: every tuple is checked —
// and, routed, given its shard — before any shard is asked; then every
// shard that has tuples opens its group, concurrently, one request each,
// and the sets come back in tuple order (groupSets).
func (p groupBatched) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	if p.form != sparql.SelectForm {
		return nil, fmt.Errorf("shard: Stream needs a SELECT query")
	}
	if len(argSets) < 2 {
		return endpoint.StreamBatch(ctx, p.groupPrepared, argSets)
	}
	s := &groupSets{p: p.groupPrepared, argSets: argSets, shards: make([]endpoint.RowSets, len(p.g.shards))}
	handles, sub := p.push, make([][][]sparql.Arg, len(p.g.shards)) // the tuples each shard runs
	if p.strat == stratRoute {
		handles, s.shardOf, s.used = p.orig, make([]int, len(argSets)), make([]bool, len(sub))
	}
	var pushSets [][]sparql.Arg
	for i, args := range argSets {
		if err := p.validateArgs(args); err != nil {
			return nil, err
		}
		if s.shardOf == nil {
			pushSets = append(pushSets, p.pushArgs(args))
			continue
		}
		sh, err := p.routeShard(args)
		if err != nil {
			return nil, err
		}
		s.shardOf[i], sub[sh] = sh, append(sub[sh], args)
	}
	if s.shardOf == nil {
		for sh := range sub {
			sub[sh] = pushSets // a fan-out runs every tuple on every shard
		}
	}
	// Opened under the caller's context, like openStreams' streams.
	err := p.g.fanout(ctx, func(_ context.Context, sh int) (err error) {
		if len(sub[sh]) > 0 {
			s.shards[sh], err = endpoint.StreamBatch(ctx, handles[sh], sub[sh])
		}
		return err
	})
	var first endpoint.Rows
	if err == nil {
		first, err = s.set()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return endpoint.NewRowSets(first, s.next, s.close), nil
}

func (p *groupPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	if p.form != sparql.AskForm {
		return false, fmt.Errorf("shard: Ask needs an ASK query")
	}
	if err := p.validateArgs(args); err != nil {
		return false, err
	}
	if p.strat == stratRoute {
		i, err := p.routeShard(args)
		if err != nil {
			return false, err
		}
		return p.orig[i].AskCtx(ctx, args...)
	}
	return p.g.fanoutAsk(ctx, func(ctx context.Context, i int) (bool, error) {
		return p.orig[i].AskCtx(ctx, args...)
	})
}

// Stream implements PreparedQuery. Routed executions stream natively
// from their shard. Fan-outs open every shard stream and merge lazily —
// rows are pulled from the shards only as the caller pulls, and an
// early Close aborts every shard mid-join. Ordered fan-outs reassemble
// ORDER BY through the streaming bounded merge (orderedRows): the whole
// enumeration is still consumed — ORDER BY cannot emit earlier — but
// over borrowed per-shard streams that never materialize losing rows.
func (p *groupPrepared) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	if p.form != sparql.SelectForm {
		return nil, fmt.Errorf("shard: Stream needs a SELECT query")
	}
	if err := p.validateArgs(args); err != nil {
		return nil, err
	}
	if p.strat == stratRoute {
		i, err := p.routeShard(args)
		if err != nil {
			return nil, err
		}
		rows, err := p.orig[i].Stream(ctx, args...)
		if err != nil {
			return nil, err
		}
		return newCapRows(rows, p.g.maxRows), nil
	}
	if p.strat == stratMergeOrdered {
		return p.streamOrdered(ctx, args)
	}
	sources, err := p.openStreams(ctx, args, false)
	if err != nil {
		return nil, err
	}
	limit, offset := p.effective(args)
	return newFanoutRows(p.projVars, p.puller(sources), p.distinct, offset, limit, p.g.maxRows), nil
}

// streamOrdered opens borrowed per-shard streams and reassembles the
// ordered whole-KB result over them — the one ordered-merge path both
// SelectCtx and Stream use.
func (p *groupPrepared) streamOrdered(ctx context.Context, args []sparql.Arg) (endpoint.Rows, error) {
	spec, err := p.orderedSpec(args)
	if err != nil {
		return nil, err
	}
	sources, err := p.openStreams(ctx, args, true)
	if err != nil {
		return nil, err
	}
	return newOrderedRows(p.projVars, sources, spec), nil
}

// openStreams opens the pushdown query's stream on every shard
// concurrently. borrowed selects the borrowed-row contract (for the
// ordered merge, which copies only winning rows); unordered merges keep
// the regular contract, since fanoutRows hands shard rows to callers.
func (p *groupPrepared) openStreams(ctx context.Context, args []sparql.Arg, borrowed bool) ([]rowsSource, error) {
	pargs := p.pushArgs(args)
	sources := make([]rowsSource, len(p.push))
	// The shard streams outlive the fan-out (the caller pulls from them
	// after this returns), so they open under the caller's context, not
	// the fan-out's derived one, which dies when the fan-out returns —
	// a shard that re-checks its context later (an HTTP shard, a
	// caching continuation) must not see a context that expired with
	// the open.
	err := p.g.fanout(ctx, func(_ context.Context, i int) error {
		var rows endpoint.Rows
		var err error
		if borrowed {
			rows, err = endpoint.StreamBorrowed(ctx, p.push[i], pargs...)
		} else {
			rows, err = p.push[i].Stream(ctx, pargs...)
		}
		if err != nil {
			return err
		}
		sources[i] = rows
		return nil
	})
	if err != nil {
		for _, s := range sources {
			if s != nil {
				s.Close()
			}
		}
		return nil, err
	}
	return sources, nil
}

// drain runs the pushdown on every shard concurrently and hands the
// whole results to the merge as replayed streams.
func (p *groupPrepared) drain(ctx context.Context, args []sparql.Arg) ([]rowsSource, error) {
	pargs := p.pushArgs(args)
	sources := make([]rowsSource, len(p.push))
	err := p.g.fanout(ctx, func(ctx context.Context, i int) error {
		res, err := p.push[i].SelectCtx(ctx, pargs...)
		if err != nil {
			return err
		}
		sources[i] = endpoint.ReplayRows(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sources, nil
}

// orderedSpec assembles the ORDER BY reassembly parameters of one
// execution; the canonical text of the original query names the RAND
// stream, exactly as the unsharded engine derives it.
func (p *groupPrepared) orderedSpec(args []sparql.Arg) (orderedMergeSpec, error) {
	limit, offset := p.effective(args)
	spec := orderedMergeSpec{
		col:        p.shape.SubjectCol,
		keys:       p.shape.Keys,
		orderTotal: p.shape.OrderTotal,
		distinct:   p.distinct,
		limit:      limit,
		offset:     offset,
		maxRows:    p.g.maxRows,
		seed:       p.g.seed,
	}
	for _, k := range spec.keys {
		if k.Rand {
			text, err := p.tmpl.Text(args...)
			if err != nil {
				return spec, err
			}
			spec.text = text
			break
		}
	}
	return spec, nil
}

// puller selects the unordered merge for this template's strategy.
func (p *groupPrepared) puller(sources []rowsSource) puller {
	if p.strat == stratMerge {
		return newSubjectPuller(sources, p.shape.SubjectCol)
	}
	return newConcatPuller(sources)
}

var (
	_ endpoint.PreparedQuery = (*groupPrepared)(nil)
	_ endpoint.BatchStreamer = groupBatched{}
)
