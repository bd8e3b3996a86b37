// Package cluster composes the federation (internal/shard) with remote
// HTTP endpoints (internal/endpoint's Client) into a network-native,
// fault-tolerant serving tier: one logical KB over k subject-hash
// shards, each shard backed by a replica set of interchangeable
// endpoints.
//
// The determinism contract the rest of the repo lives by survives the
// network unchanged: every replica of a shard serves the same partition
// with the same seed, and RAND() streams are derived from seed ⊕
// canonical query text — a function of the query, not of the machine —
// so any replica's answer to any (sub)query is byte-identical to any
// other's, and a cluster.Group is byte-identical to the unsharded
// Local. That replica-independence is precisely what makes failover and
// hedging safe to apply per call with zero coordination.
//
// Per replica set the package provides:
//
//   - primary-first routing over the healthy replicas, with ejected
//     replicas kept as a last resort so a fully ejected set degrades to
//     trying rather than failing outright;
//   - active health checks — a periodic cheap ASK probe per replica,
//     consecutive-failure ejection, re-admission on the first success —
//     plus passive strikes from real traffic errors;
//   - failover — a retriable error (transport failure, 5xx) moves the
//     call to the next replica; semantic errors (quota, parse, caller
//     cancellation) propagate immediately;
//   - hedged reads — after a static delay or an observed latency
//     percentile, the call is re-issued to the next replica and the
//     first answer wins, the loser's context is canceled.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/sparql"
)

// Options configures a replica set (and, via Group, every replica set
// of a cluster).
type Options struct {
	// HedgeDelay launches a second attempt on the next replica if the
	// first has not answered after this long. 0 disables hedging
	// (unless HedgePercentile is set).
	HedgeDelay time.Duration
	// HedgePercentile, in (0,1), derives the hedge delay from the
	// replica set's observed latency distribution (e.g. 0.95: hedge
	// when an attempt exceeds the p95 of recent calls). Takes over from
	// HedgeDelay once enough samples exist; before that, HedgeDelay
	// applies.
	HedgePercentile float64
	// FailAfter is the consecutive-failure count that ejects a replica
	// (default 3). Active probe failures and retriable traffic errors
	// both count; any success resets the count and re-admits.
	FailAfter int
	// ProbeInterval is the active health probe period. 0 disables
	// active probing (passive strikes still eject).
	ProbeInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	return o
}

// latWindow is how many recent per-attempt latencies a replica retains
// for percentile hedging.
const latWindow = 64

// replica is one member of a set, with its health and traffic state.
type replica struct {
	ep endpoint.Endpoint

	mu       sync.Mutex
	fails    int  // consecutive failures (probe or traffic)
	healthy  bool // false = ejected
	requests uint64
	errors   uint64
	lat      [latWindow]time.Duration
	latN     int // total samples ever (ring cursor = latN % latWindow)
}

// observe records one attempt's outcome for routing and hedging.
func (r *replica) observe(d time.Duration, err error, failAfter int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	if err == nil {
		r.fails = 0
		r.healthy = true
		r.lat[r.latN%latWindow] = d
		r.latN++
		return
	}
	r.errors++
	if endpoint.Retriable(err) {
		r.strikeLocked(failAfter)
	}
}

// strike records one failure (probe or retriable traffic error).
func (r *replica) strike(failAfter int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.strikeLocked(failAfter)
}

func (r *replica) strikeLocked(failAfter int) {
	r.fails++
	if r.fails >= failAfter {
		r.healthy = false
	}
}

// recover marks a probe success: reset strikes, re-admit.
func (r *replica) recover() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.healthy = true
}

func (r *replica) isHealthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// ReplicaStatus is one replica's health and traffic snapshot.
type ReplicaStatus struct {
	Name     string
	Healthy  bool
	Fails    int
	Requests uint64
	Errors   uint64
}

// Replicas is an Endpoint over a set of interchangeable replicas of the
// same shard: every call routes to a healthy replica, fails over on
// retriable errors, and optionally hedges. Close stops the active
// health prober (if one runs).
type Replicas struct {
	name string
	opt  Options
	reps []*replica

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewReplicas builds a replica set over interchangeable endpoints —
// each must serve the same shard with the same seed, or the cluster's
// byte-identity (and hedging's safety) is void. The set's Name is the
// first replica's: the federation's coalescing and routing key, which
// must not vary with the replica that answers.
func NewReplicas(eps []endpoint.Endpoint, opt Options) (*Replicas, error) {
	if len(eps) == 0 {
		return nil, fmt.Errorf("cluster: a replica set needs at least one endpoint")
	}
	opt = opt.withDefaults()
	r := &Replicas{
		name: eps[0].Name(),
		opt:  opt,
		reps: make([]*replica, len(eps)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i, ep := range eps {
		r.reps[i] = &replica{ep: ep, healthy: true}
	}
	if opt.ProbeInterval > 0 {
		go r.healthLoop()
	} else {
		close(r.done)
	}
	return r, nil
}

// Close stops the active health prober. Calls in flight finish.
func (r *Replicas) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Status snapshots every replica's health and traffic counters, in
// declaration order.
func (r *Replicas) Status() []ReplicaStatus {
	out := make([]ReplicaStatus, len(r.reps))
	for i, rep := range r.reps {
		rep.mu.Lock()
		out[i] = ReplicaStatus{
			Name:     rep.ep.Name(),
			Healthy:  rep.healthy,
			Fails:    rep.fails,
			Requests: rep.requests,
			Errors:   rep.errors,
		}
		rep.mu.Unlock()
	}
	return out
}

// order returns the replicas in attempt order: healthy ones first, in
// declaration order — the first healthy replica takes all traffic,
// which keeps caches hot on one machine per shard, and the rest are
// failover and hedge targets — then ejected ones as a last resort: a
// set with every replica ejected still tries rather than failing
// outright, and the attempt doubles as its recovery probe. Each
// replica's health is read once, so one that flips meanwhile is listed
// exactly once all the same.
func (r *Replicas) order() []*replica {
	out := make([]*replica, 0, len(r.reps))
	var ejected []*replica
	for _, rep := range r.reps {
		if rep.isHealthy() {
			out = append(out, rep)
		} else {
			ejected = append(ejected, rep)
		}
	}
	return append(out, ejected...)
}

// hedgeDelay resolves the current hedge delay: the observed latency
// percentile once enough samples exist, the static delay before that,
// 0 when hedging is off.
func (r *Replicas) hedgeDelay() time.Duration {
	if r.opt.HedgePercentile > 0 && r.opt.HedgePercentile < 1 {
		var lats []time.Duration
		for _, rep := range r.reps {
			rep.mu.Lock()
			n := rep.latN
			if n > latWindow {
				n = latWindow
			}
			lats = append(lats, rep.lat[:n]...)
			rep.mu.Unlock()
		}
		if len(lats) >= 8 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			i := int(float64(len(lats)) * r.opt.HedgePercentile)
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return lats[i]
		}
	}
	return r.opt.HedgeDelay
}

// attemptOut is one attempt's outcome inside hedge.
type attemptOut[T any] struct {
	val T
	err error
	id  int
}

// hedge runs call against the replica set: first attempt to the
// policy's first choice, a hedged second attempt after the hedge delay,
// immediate failover on retriable errors, first success wins. The
// winner's context cancel is returned, NOT invoked — a whole-result
// caller defers it; a stream caller ties it to the stream's Close so
// the remote enumeration stays alive while rows are pulled. Losing
// attempts are canceled; a loser that still completes with a value is
// released through discard (closing a stream body), never leaked.
//
// Two attempts only ever run at once when a hedge timer fires. Without
// one — hedging off, or a single candidate — the attempts run one after
// the other on the caller's goroutine (inOrder).
//
// tuples is how many executions one attempt carries: 1, or the size of
// a group of streams (StreamBatch; never 0, an empty group makes no
// attempt). A group is one attempt — one request, one success or
// strike, moved whole on failover at its open — but not one latency
// sample: the window holds per-execution latencies, so an attempt
// records its open's duration divided by tuples and is given tuples
// times the hedge delay before its hedge launches.
func hedge[T any](ctx context.Context, r *Replicas, tuples int, call func(ctx context.Context, ep endpoint.Endpoint) (T, error), discard func(T)) (T, context.CancelFunc, error) {
	var zero T
	cands := r.order()
	var delay time.Duration
	if len(cands) > 1 {
		delay = r.hedgeDelay() * time.Duration(tuples)
	}
	if delay <= 0 {
		return inOrder(ctx, r, cands, tuples, call)
	}
	outs := make(chan attemptOut[T], len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	launched := 0
	launch := func() {
		rep, id := cands[launched], launched
		launched++
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			start := time.Now()
			v, err := call(actx, rep.ep)
			r.observeAttempt(rep, time.Since(start)/time.Duration(tuples), err)
			outs <- attemptOut[T]{val: v, err: err, id: id}
		}()
	}
	launch()

	t := time.NewTimer(delay)
	defer t.Stop()
	timerC := t.C

	pending := 1
	var firstErr error
	finish := func(winner int) {
		// Cancel every losing attempt and drain stragglers off-path so
		// their values (open stream bodies) are released, not leaked.
		for id, cancel := range cancels {
			if id != winner {
				cancel()
			}
		}
		if pending > 0 {
			n := pending
			go func() {
				for i := 0; i < n; i++ {
					if o := <-outs; o.err == nil && discard != nil {
						discard(o.val)
					}
				}
			}()
		}
	}
	for {
		select {
		case <-timerC:
			timerC = nil
			if launched < len(cands) {
				launch()
				pending++
			}
		case o := <-outs:
			pending--
			if o.err == nil {
				finish(o.id)
				return o.val, cancels[o.id], nil
			}
			cancels[o.id]()
			if firstErr == nil {
				firstErr = o.err
			}
			if !endpoint.Retriable(o.err) && ctx.Err() == nil {
				// A semantic answer (quota, parse error): every replica
				// would say the same — stop, don't mask it with retries.
				finish(-1)
				return zero, nil, o.err
			}
			if launched < len(cands) {
				launch()
				pending++
			} else if pending == 0 {
				return zero, nil, firstErr
			}
		}
	}
}

// inOrder is hedge with no hedge timer armed: the candidates are tried
// in order until one succeeds, fails with an error no replica would
// answer differently, or none is left.
func inOrder[T any](ctx context.Context, r *Replicas, cands []*replica, tuples int, call func(ctx context.Context, ep endpoint.Endpoint) (T, error)) (T, context.CancelFunc, error) {
	var zero T
	var firstErr error
	for _, rep := range cands {
		actx, cancel := context.WithCancel(ctx)
		start := time.Now()
		v, err := call(actx, rep.ep)
		r.observeAttempt(rep, time.Since(start)/time.Duration(tuples), err)
		if err == nil {
			return v, cancel, nil
		}
		cancel()
		if firstErr == nil {
			firstErr = err
		}
		if !endpoint.Retriable(err) && ctx.Err() == nil {
			return zero, nil, err
		}
	}
	return zero, nil, firstErr
}

func (r *Replicas) observeAttempt(rep *replica, d time.Duration, err error) {
	rep.observe(d, err, r.opt.FailAfter)
}

// Name implements Endpoint. The whole set answers under one name: which
// replica served is an operational detail, invisible to coalescing,
// caching and routing above.
func (r *Replicas) Name() string { return r.name }

// SelectCtx implements Endpoint by endpoint.SelectText.
func (r *Replicas) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return endpoint.SelectText(ctx, r, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (r *Replicas) AskCtx(ctx context.Context, query string) (bool, error) {
	return endpoint.AskText(ctx, r, query)
}

// Prepare implements Endpoint: the template prepares once per replica,
// and each execution routes like any other read — failover, hedging,
// first answer wins. Replica-independent determinism (seed ⊕ canonical
// text) is what makes racing two replicas' RAND()-bearing executions
// safe: both would answer identically.
func (r *Replicas) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	handles := make([]endpoint.PreparedQuery, len(r.reps))
	for i, rep := range r.reps {
		pq, err := rep.ep.Prepare(template, params...)
		if err != nil {
			return nil, err
		}
		handles[i] = pq
	}
	p := &replicasPrepared{r: r, handles: handles}
	if _, ok := handles[0].(endpoint.BatchStreamer); ok {
		return replicasBatched{p}, nil
	}
	return p, nil
}

// replicasPrepared is the set's PreparedQuery: per-replica handles, one
// hedged execution per call.
type replicasPrepared struct {
	r       *Replicas
	handles []endpoint.PreparedQuery
}

// handleFor maps a replica chosen by hedge back to its prepared handle.
func (p *replicasPrepared) handleFor(ep endpoint.Endpoint) endpoint.PreparedQuery {
	for i, rep := range p.r.reps {
		if rep.ep == ep {
			return p.handles[i]
		}
	}
	return nil // unreachable: hedge only passes the set's own endpoints
}

func (p *replicasPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	res, cancel, err := hedge(ctx, p.r, 1, func(ctx context.Context, ep endpoint.Endpoint) (*sparql.Result, error) {
		return p.handleFor(ep).SelectCtx(ctx, args...)
	}, nil)
	if cancel != nil {
		cancel()
	}
	return res, err
}

func (p *replicasPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	ok, cancel, err := hedge(ctx, p.r, 1, func(ctx context.Context, ep endpoint.Endpoint) (bool, error) {
		return p.handleFor(ep).AskCtx(ctx, args...)
	}, nil)
	if cancel != nil {
		cancel()
	}
	return ok, err
}

// closeRows releases a losing attempt's open stream.
func closeRows(rows endpoint.Rows) { rows.Close() }

// Stream implements PreparedQuery. The hedge race is decided at stream
// open. For a wire stream that is the arrival of the server's first
// write, which carries the head frame together with the first frame
// that has data — a full batch of rows, or the whole of a shorter
// answer — so the race goes to the replica that first has rows to show,
// not to the one that first acknowledged the request. The winning
// attempt's context stays alive until the stream is closed or
// exhausted, and losing attempts' streams are canceled and closed.
func (p *replicasPrepared) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.stream(ctx, func(ctx context.Context, pq endpoint.PreparedQuery) (endpoint.Rows, error) {
		return pq.Stream(ctx, args...)
	})
}

// StreamBorrowed implements endpoint.StreamBorrower by delegation.
func (p *replicasPrepared) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	return p.stream(ctx, func(ctx context.Context, pq endpoint.PreparedQuery) (endpoint.Rows, error) {
		return endpoint.StreamBorrowed(ctx, pq, args...)
	})
}

func (p *replicasPrepared) stream(ctx context.Context, open func(ctx context.Context, pq endpoint.PreparedQuery) (endpoint.Rows, error)) (endpoint.Rows, error) {
	rows, cancel, err := hedge(ctx, p.r, 1, func(ctx context.Context, ep endpoint.Endpoint) (endpoint.Rows, error) {
		return open(ctx, p.handleFor(ep))
	}, closeRows)
	if err != nil {
		return nil, err
	}
	return &endpoint.ReleasingRows{Rows: rows, Release: cancel}, nil
}

// replicasBatched is the handle of a set whose replicas take groups of
// streams. Only such a set is an endpoint.BatchStreamer: over replicas
// that do not — in-process Locals, wrapped clients — a group stays the
// single hedged streams it stands for.
type replicasBatched struct{ *replicasPrepared }

// StreamBatch implements endpoint.BatchStreamer: the group is one
// attempt, hedged and failed over whole at its open like Stream, and
// answered to its end by the replica that won. Once open it is not
// retried: a cut after the open is the caller's typed error, and the
// replica takes no strike for it. The winner's context lives until the
// group has no further set or is closed, not — as ReleasingRows lets go
// of a stream's — to the first exhausted set. An empty group is no
// attempt at all.
func (p replicasBatched) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	if len(argSets) == 0 {
		return endpoint.ReplaySets(nil), nil
	}
	sets, cancel, err := hedge(ctx, p.r, len(argSets), func(ctx context.Context, ep endpoint.Endpoint) (endpoint.RowSets, error) {
		return endpoint.StreamBatch(ctx, p.handleFor(ep), argSets)
	}, func(sets endpoint.RowSets) { sets.Close() })
	if err != nil {
		return nil, err
	}
	return endpoint.NewRowSets(sets, nil, cancel), nil
}

var (
	_ endpoint.Endpoint       = (*Replicas)(nil)
	_ endpoint.PreparedQuery  = (*replicasPrepared)(nil)
	_ endpoint.StreamBorrower = (*replicasPrepared)(nil)
	_ endpoint.BatchStreamer  = replicasBatched{}
)
