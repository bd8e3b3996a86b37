// Package endpoint provides the only gateway SOFYA uses to reach a
// knowledge base: a SPARQL endpoint. It deliberately mirrors the access
// model of public Linked Open Data endpoints, which the paper's
// introduction motivates — you may pose queries, but you may not
// download the dataset:
//
//   - Local wraps an in-process sparql.Engine and enforces an access
//     Quota: a per-session query budget, a per-query row cap (public
//     DBpedia truncates at 10 000 rows), and optional simulated latency.
//   - Server / Client speak the SPARQL 1.1 protocol over HTTP with
//     application/sparql-results+json bodies, so the alignment pipeline
//     can run against a genuinely remote KB.
//   - Caching is the one memo decorator for concurrent alignment
//     pipelines: identical in-flight queries share one probe and
//     successful results stay under an LRU bound, so each distinct
//     query reaches the KB once (Coalescing is the same type).
//
// Every call that reaches a KB takes a context (SelectCtx / AskCtx /
// Stream), and there is no context-free spelling: the endpoints SOFYA
// aligns over stall, shed and time out, so every probe can be abandoned.
// A query text is a template without parameters (SelectText): only
// Client, the one text transport, sends it as it came.
//
// Independent executions of one prepared template go to the endpoint
// together, as a group, and a group is a sequence of streams at every
// layer (BatchStreamer): the HTTP client sends it as one multi=1 request
// (multi.go), a replica set hedges and fails it over whole at its open,
// and shard and cluster federations open it once per shard. A caller
// that wants whole results drains the sets (SelectBatch). Where a handle
// is no BatchStreamer the executions run one after the other. Local and
// the decorators deliberately are none: a group reaches them as the
// single queries it stands for, so quota, statistics, cache keys and
// admission count it as exactly that.
//
// All endpoints record Stats, which the experiments use to report the
// number of queries and rows each alignment consumed (experiment E4).
package endpoint

import (
	"context"
	"errors"
	"sync"
	"time"

	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// ErrQuotaExceeded is returned once a session's query budget is spent.
var ErrQuotaExceeded = errors.New("endpoint: query quota exceeded")

// Endpoint is a queryable SPARQL service.
type Endpoint interface {
	// Name identifies the dataset behind the endpoint.
	Name() string
	// SelectCtx runs a SELECT query and returns its bindings, honoring
	// ctx for cancellation and deadlines. The result may be truncated
	// (Result.Truncated) by a row cap.
	SelectCtx(ctx context.Context, query string) (*sparql.Result, error)
	// AskCtx runs an ASK query, honoring ctx like SelectCtx.
	AskCtx(ctx context.Context, query string) (bool, error)
	// Prepare compiles a query template (parameters written $name in
	// term positions, or LIMIT $name) for repeated execution; SelectCtx
	// and AskCtx run a text as the template without parameters. Local
	// endpoints skip parse, plan and interpolation per call, remote ones
	// render canonical text (NewTextPrepared).
	Prepare(template string, params ...string) (PreparedQuery, error)
}

// StatsReporter is implemented by endpoints that track access statistics.
type StatsReporter interface {
	Stats() Stats
	ResetStats()
}

// innerStats is what every decorator (Caching, Admission)
// embeds: the endpoint it wraps, and StatsReporter by delegation to it,
// so wrapping keeps the query accounting of the underlying service
// observable (a zero Stats is reported for non-reporting inners).
type innerStats struct{ inner Endpoint }

// Stats implements StatsReporter.
func (d innerStats) Stats() Stats {
	if sr, ok := d.inner.(StatsReporter); ok {
		return sr.Stats()
	}
	return Stats{}
}

// ResetStats implements StatsReporter.
func (d innerStats) ResetStats() {
	if sr, ok := d.inner.(StatsReporter); ok {
		sr.ResetStats()
	}
}

// Quota models the access restrictions of a public SPARQL endpoint.
// The zero value means unrestricted.
type Quota struct {
	// MaxQueries is the total number of queries a session may issue;
	// 0 means unlimited. Exceeding it returns ErrQuotaExceeded.
	MaxQueries int
	// MaxRows caps the rows returned per SELECT; 0 means unlimited.
	// Truncation is flagged on the result, like a public endpoint's
	// silent result cap.
	MaxRows int
	// Latency is added to every query, simulating network round trips.
	Latency time.Duration
}

// Stats counts endpoint usage.
type Stats struct {
	// Queries is the number of queries accepted (SELECT + ASK).
	Queries int
	// Rows is the total number of rows returned across SELECTs.
	Rows int
	// Truncations counts SELECTs cut short by the row cap.
	Truncations int
	// Denied counts queries rejected by the quota.
	Denied int
}

// Local is an Endpoint over an in-process KB.
type Local struct {
	name   string
	engine *sparql.Engine
	quota  Quota

	mu    sync.Mutex
	stats Stats
}

// NewLocal builds an unrestricted endpoint over k with a deterministic
// RAND() seed. Creating an endpoint marks the load → serve boundary of
// the KB lifecycle: k's index is built now (kb.Freeze), not by the
// first query.
func NewLocal(k *kb.KB, seed int64) *Local {
	k.Freeze()
	return &Local{name: k.Name(), engine: sparql.NewEngineSeeded(k, seed)}
}

// NewLocalRestricted builds an endpoint over k with an access quota,
// freezing k like NewLocal.
func NewLocalRestricted(k *kb.KB, seed int64, q Quota) *Local {
	k.Freeze()
	return &Local{name: k.Name(), engine: sparql.NewEngineSeeded(k, seed), quota: q}
}

// Name implements Endpoint.
func (l *Local) Name() string { return l.name }

// KB exposes the underlying KB for tools that legitimately own the data
// (the snapshot baseline, the generator); the aligner must not use it.
func (l *Local) KB() *kb.KB { return l.engine.KB() }

// SetQuota replaces the endpoint's quota (counters keep running).
func (l *Local) SetQuota(q Quota) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quota = q
}

// Stats implements StatsReporter.
func (l *Local) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// ResetStats implements StatsReporter.
func (l *Local) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}

// admit charges one query against the quota.
func (l *Local) admit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.quota.MaxQueries > 0 && l.stats.Queries >= l.quota.MaxQueries {
		l.stats.Denied++
		return ErrQuotaExceeded
	}
	l.stats.Queries++
	return nil
}

var (
	errNeedSelect = errors.New("endpoint: Select needs a SELECT query")
	errNeedAsk    = errors.New("endpoint: Ask needs an ASK query")
)

// admitCtx charges the quota and simulates latency: the context is
// checked before the query is admitted and while the latency elapses;
// evaluation itself is in-process and fast, so it is not interruptible.
func (l *Local) admitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := l.admit(); err != nil {
		return err
	}
	return sleepCtx(ctx, l.latency())
}

// capAndCount applies the row cap and records result statistics.
func (l *Local) capAndCount(res *sparql.Result) {
	l.mu.Lock()
	if l.quota.MaxRows > 0 && len(res.Rows) > l.quota.MaxRows {
		res.Rows = res.Rows[:l.quota.MaxRows]
		res.Truncated = true
		l.stats.Truncations++
	}
	l.stats.Rows += len(res.Rows)
	l.mu.Unlock()
}

// maxRows reads the quota's row cap for a stream about to start; a
// SetQuota during the stream does not retroactively re-cap it.
func (l *Local) maxRows() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quota.MaxRows
}

// countStreamed records the statistics of one finished stream: only the
// rows the consumer actually pulled are charged.
func (l *Local) countStreamed(rows int, truncated bool) {
	l.mu.Lock()
	l.stats.Rows += rows
	if truncated {
		l.stats.Truncations++
	}
	l.mu.Unlock()
}

// SelectCtx implements Endpoint by SelectText.
func (l *Local) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return SelectText(ctx, l, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (l *Local) AskCtx(ctx context.Context, query string) (bool, error) {
	return AskText(ctx, l, query)
}

// Prepare implements Endpoint: the template compiles once into a
// slot-addressed plan over the endpoint's engine, and every execution
// binds arguments into registers directly — no parsing, no planning,
// no text interpolation. A query text — what a server is sent, a
// template's canonical text nearly always — is bound to the plan the
// engine caches for its shape (sparql.Engine.BindText): read off the
// shape's skeleton when it is canonical, parsed when it is not.
func (l *Local) Prepare(template string, params ...string) (PreparedQuery, error) {
	if len(params) == 0 {
		plan, err := l.engine.BindText(template)
		if err != nil {
			return nil, err
		}
		return &localPrepared{l: l, plan: plan}, nil
	}
	t, err := sparql.ParseTemplate(template, params...)
	if err != nil {
		return nil, err
	}
	plan, err := l.engine.Prepare(t)
	if err != nil {
		return nil, err
	}
	return &localPrepared{l: l, plan: plan}, nil
}

func (l *Local) latency() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quota.Latency
}

// sleepCtx sleeps for d, returning early with ctx.Err() if the context
// ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var (
	_ Endpoint      = (*Local)(nil)
	_ StatsReporter = (*Local)(nil)
)
