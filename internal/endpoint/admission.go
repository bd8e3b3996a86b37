package endpoint

import (
	"context"
	"sync"
	"time"

	"sofya/internal/sparql"
)

// ErrOverloaded is returned when admission control sheds a request:
// the endpoint is saturated and the bounded wait queue is full (or the
// wait timed out). It satisfies errors.Is(err, ErrQuotaExceeded) — both
// travel as HTTP 429, and callers that treat quota rejections as
// terminal handle sheds identically — but unlike a quota rejection a
// shed is Retriable: the quota is a property of the query session
// (every replica would answer the same), while overload is a property
// of the machine that answered, and another replica of the same shard
// may well have capacity.
var ErrOverloaded error = overloadedError{}

type overloadedError struct{}

func (overloadedError) Error() string {
	return "endpoint: overloaded: request shed by admission control"
}

func (overloadedError) Is(target error) bool { return target == ErrQuotaExceeded }

// Limits configures an Admission decorator. The zero value admits
// everything (useful for flag plumbing and transparency tests).
type Limits struct {
	// MaxInFlight is the number of queries allowed to execute inside
	// the endpoint concurrently; <= 0 means unlimited (the decorator
	// only counts traffic). A streamed execution holds its slot until
	// the stream is closed or exhausted — an open stream pins endpoint
	// resources exactly like a running query.
	MaxInFlight int
	// Queue is how many callers may wait for a slot once MaxInFlight
	// is reached; a caller beyond that is shed immediately with
	// ErrOverloaded. 0 means no waiting: saturated is shed.
	Queue int
	// QueueTimeout bounds how long a queued caller waits before it is
	// shed; <= 0 waits until a slot frees or the caller's context ends.
	QueueTimeout time.Duration
}

// AdmissionStats counts an Admission decorator's activity.
type AdmissionStats struct {
	// Admitted counts calls that acquired a slot (Queued of them after
	// a wait). Sheds are split by cause: the queue bound or the queue
	// timeout. InFlight and Waiting are current gauges.
	Admitted      uint64
	Queued        uint64
	ShedQueueFull uint64
	ShedTimeout   uint64
	InFlight      int
	Waiting       int
}

// Shed is the total number of requests rejected with ErrOverloaded.
func (s AdmissionStats) Shed() uint64 { return s.ShedQueueFull + s.ShedTimeout }

// Admission decorates an Endpoint with load shedding: a max-in-flight
// semaphore and a bounded, time-limited wait queue. Excess load is
// rejected immediately with ErrOverloaded instead of queueing without
// bound — under overload the endpoint keeps answering the work it
// admits at its capacity's latency, and everything else fails fast so
// the caller (a hedged cluster client, a retrying user) can go
// elsewhere. This is the protection per-query Quotas cannot give: a
// quota bounds one session's total demand, admission bounds the
// instantaneous concurrency of all sessions together.
//
// The decorator composes like Caching: it is safe for
// concurrent use, delegates Stats to the inner endpoint (sheds never
// reach it, so its Denied counter reflects quota rejections only;
// AdmissionStats counts sheds), and with unlimited Limits it is
// byte-transparent. cmd/sparqld puts it outermost, around whatever it
// serves — a Local, a shard group, a cluster front-end: a slot is then
// one HTTP request's query, -max-inflight bounds what the process has in
// hand, and a federated query holds one slot, not one per shard it fans
// out to. Outermost over Caching, a cache hit and a coalesced follower
// hold a slot too; below it, only calls that reach the inner endpoint
// do.
type Admission struct {
	innerStats
	lim Limits
	sem chan struct{} // cap MaxInFlight; nil = unlimited

	mu      sync.Mutex
	waiting int
	stats   AdmissionStats
}

// NewAdmission wraps inner with admission limits.
func NewAdmission(inner Endpoint, lim Limits) *Admission {
	a := &Admission{innerStats: innerStats{inner}, lim: lim}
	if lim.MaxInFlight > 0 {
		a.sem = make(chan struct{}, lim.MaxInFlight)
	}
	return a
}

// AdmissionStats returns the decorator's own admission counters.
func (a *Admission) AdmissionStats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.InFlight = len(a.sem)
	st.Waiting = a.waiting
	return st
}

func noRelease() {}

// acquire admits one call: immediately when a slot is free, after a
// bounded wait when the queue has room, with ErrOverloaded otherwise.
// ctx ending while queued returns ctx.Err() — the caller gave up, it
// was not shed. The release it returns frees the slot; it is idempotent.
func (a *Admission) acquire(ctx context.Context) (release func(), err error) {
	if a.sem == nil {
		a.mu.Lock()
		a.stats.Admitted++
		a.mu.Unlock()
		return noRelease, nil
	}
	select {
	case a.sem <- struct{}{}:
		a.mu.Lock()
		a.stats.Admitted++
		a.mu.Unlock()
		return a.releaser(), nil
	default:
	}
	// Saturated: join the bounded queue or shed.
	a.mu.Lock()
	if a.waiting >= a.lim.Queue {
		a.stats.ShedQueueFull++
		a.mu.Unlock()
		return nil, ErrOverloaded
	}
	a.waiting++
	a.mu.Unlock()

	var timeout <-chan time.Time
	if a.lim.QueueTimeout > 0 {
		t := time.NewTimer(a.lim.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case a.sem <- struct{}{}:
		a.mu.Lock()
		a.waiting--
		a.stats.Admitted++
		a.stats.Queued++
		a.mu.Unlock()
		return a.releaser(), nil
	case <-timeout:
		a.mu.Lock()
		a.waiting--
		a.stats.ShedTimeout++
		a.mu.Unlock()
		return nil, ErrOverloaded
	case <-ctx.Done():
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (a *Admission) releaser() func() {
	var once sync.Once
	return func() { once.Do(func() { <-a.sem }) }
}

// Name implements Endpoint.
func (a *Admission) Name() string { return a.inner.Name() }

// SelectCtx implements Endpoint by SelectText.
func (a *Admission) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return SelectText(ctx, a, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (a *Admission) AskCtx(ctx context.Context, query string) (bool, error) {
	return AskText(ctx, a, query)
}

// Prepare implements Endpoint: preparation itself is not admitted (it
// touches no data), every execution of the handle is — so a query text
// is parsed before it takes a slot.
func (a *Admission) Prepare(template string, params ...string) (PreparedQuery, error) {
	inner, err := a.inner.Prepare(template, params...)
	if err != nil {
		return nil, err
	}
	return &admissionPrepared{a: a, inner: inner}, nil
}

// admissionPrepared admits each execution of a prepared handle.
type admissionPrepared struct {
	a     *Admission
	inner PreparedQuery
}

func (p *admissionPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	release, err := p.a.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return p.inner.SelectCtx(ctx, args...)
}

func (p *admissionPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	release, err := p.a.acquire(ctx)
	if err != nil {
		return false, err
	}
	defer release()
	return p.inner.AskCtx(ctx, args...)
}

// Stream implements PreparedQuery: the slot is held until the returned
// stream is closed or exhausted, so an open stream counts against
// MaxInFlight like a running query.
func (p *admissionPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	return p.stream(ctx, func() (Rows, error) { return p.inner.Stream(ctx, args...) })
}

// StreamBorrowed implements StreamBorrower by delegation, preserving
// the merge layer's zero-copy path through the decorator.
func (p *admissionPrepared) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	return p.stream(ctx, func() (Rows, error) { return StreamBorrowed(ctx, p.inner, args...) })
}

func (p *admissionPrepared) stream(ctx context.Context, open func() (Rows, error)) (Rows, error) {
	release, err := p.a.acquire(ctx)
	if err != nil {
		return nil, err
	}
	rows, err := open()
	if err != nil {
		release()
		return nil, err
	}
	return &ReleasingRows{Rows: rows, Release: release}, nil
}

var (
	_ Endpoint       = (*Admission)(nil)
	_ StatsReporter  = (*Admission)(nil)
	_ PreparedQuery  = (*admissionPrepared)(nil)
	_ StreamBorrower = (*admissionPrepared)(nil)
)
