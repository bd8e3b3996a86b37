// Package shard federates a subject-hash-partitioned knowledge base:
// a Group serves the full endpoint.Endpoint interface over k Local
// shards (kb.Partition) and merges their answers back into the
// whole-KB result — byte-identical to an unsharded endpoint for every
// query class the alignment pipeline issues.
//
// The fan-out seam is the prepared-query interface: a template prepares
// once per shard and every execution binds arguments per shard. A query
// text is a template with no parameters — SelectCtx and AskCtx prepare
// it once, keep the handle in a bounded cache keyed by text, and run it
// like any other prepared query, so the Group has one plan type and one
// execution path. The merge seam is the streaming Rows interface: shard
// streams interleave at the merge point.
//
// Three execution strategies cover the federated query classes:
//
//   - Routing. A query whose patterns all share one concrete subject
//     evaluates wholly inside the subject's shard (the partitioning
//     invariant), so it is sent verbatim to that shard — including any
//     ORDER BY RAND(), which the shard reproduces exactly because its
//     engine seed and the canonical text match the unsharded setup and
//     all matching rows are local.
//
//   - Subject-ordered k-way merge. A star query on one subject variable
//     enumerates — on the whole KB and on every shard — grouped by
//     subject in term order, with within-group orders identical because
//     shards plan with the whole KB's statistics (kb.SetPlanStats). A
//     heap over the shard heads that always yields the least subject
//     term therefore reconstructs whole-KB enumeration order exactly.
//     Unordered queries stream through this merge with DISTINCT dedup,
//     OFFSET skipping and LIMIT early-exit at the merge point (and
//     LIMIT pushed down to the shards when no DISTINCT intervenes);
//     closing the merged stream closes every shard stream.
//
//   - ORDER BY reassembly. Ordered queries are pushed down stripped of
//     ORDER BY / LIMIT / OFFSET; the merge point re-derives each key on
//     the reconstructed enumeration: bare RAND() keys are re-drawn from
//     the engine-identical PRNG stream (sparql.RandStream over the
//     original canonical text) in enumeration order, deterministic keys
//     are re-evaluated over the projected row, and rows are selected
//     with the engine's own comparator — a bounded top-k heap with
//     enumeration-index tiebreak for statically total-ordered keys, the
//     reference stable sort otherwise. This is what keeps the sampling
//     probes (ORDER BY RAND() LIMIT k) byte-identical across any shard
//     count.
//
// Queries outside these classes — cross-subject joins, RAND() inside
// FILTER — are rejected with ErrNotDecomposable rather than answered
// wrongly; ASK fans out with a short-circuit on the first true. Quota
// errors from any shard surface through the merge, and a merged
// result is Truncated as soon as any shard's contribution was.
package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"

	"sofya/internal/endpoint"
	"sofya/internal/flight"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// ErrNotDecomposable marks queries the federation cannot answer
// faithfully over subject-partitioned shards (cross-subject joins,
// RAND() in FILTER, ORDER BY keys that cannot be reproduced at the
// merge point). Callers see it wrapped with the specific reason.
var ErrNotDecomposable = errors.New("shard: query is not decomposable over subject-partitioned shards")

// Group is a federation of shard endpoints behind one Endpoint. It is
// safe for concurrent use (like every endpoint).
type Group struct {
	name    string
	shards  []endpoint.Endpoint
	seed    int64
	maxRows int

	mu    sync.Mutex
	plans map[string]*groupPrepared // zero-parameter templates, by query text
}

// Option configures a Group.
type Option func(*Group)

// RowCap caps the rows of every SELECT the group answers — the
// group-level equivalent of Quota.MaxRows, applied to the merged (or
// routed) result so the cap matches the unsharded endpoint's contract
// instead of multiplying by the shard count. 0 means unlimited.
func RowCap(n int) Option {
	return func(g *Group) {
		if n > 0 {
			g.maxRows = n
		}
	}
}

// NewGroup federates the given shard endpoints under one name. The
// shards must be the output of kb.Partition served in order (shard i of
// the partition at index i) for routing and merge determinism to hold;
// seed must be the RAND() seed the shard engines run with, so the merge
// point can re-derive RAND() streams.
func NewGroup(name string, seed int64, shards []endpoint.Endpoint, opts ...Option) (*Group, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: a group needs at least one shard")
	}
	g := &Group{
		name:   name,
		shards: append([]endpoint.Endpoint(nil), shards...),
		seed:   seed,
		plans:  make(map[string]*groupPrepared),
	}
	for _, opt := range opts {
		opt(g)
	}
	return g, nil
}

// Partitioned splits src into n subject-hash shards (kb.Partition) and
// federates them behind a Group: the drop-in sharded replacement for
// endpoint.NewLocal(src, seed).
func Partitioned(src *kb.KB, n int, seed int64, opts ...Option) *Group {
	return PartitionedRestricted(src, n, seed, endpoint.Quota{}, opts...)
}

// PartitionedRestricted is Partitioned under an access quota. The row
// cap is enforced at the merge point (one cap for the whole answer,
// exactly like the unsharded restricted endpoint), while the query
// budget applies per shard — a fan-out consumes one query on every
// shard, a routed probe on one.
func PartitionedRestricted(src *kb.KB, n int, seed int64, q endpoint.Quota, opts ...Option) *Group {
	shardQuota := q
	shardQuota.MaxRows = 0
	parts := kb.Partition(src, n)
	eps := make([]endpoint.Endpoint, len(parts))
	for i, p := range parts {
		eps[i] = endpoint.NewLocalRestricted(p, seed, shardQuota)
	}
	g, err := NewGroup(src.Name(), seed, eps, append([]Option{RowCap(q.MaxRows)}, opts...)...)
	if err != nil {
		panic(err) // unreachable: kb.Partition returns n >= 1 shards
	}
	return g
}

// Name implements Endpoint.
func (g *Group) Name() string { return g.name }

// Shards exposes the federated shard endpoints, in partition order.
func (g *Group) Shards() []endpoint.Endpoint { return g.shards }

// SelectCtx implements Endpoint by endpoint.SelectText.
func (g *Group) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return endpoint.SelectText(ctx, g, query)
}

// AskCtx implements Endpoint, like SelectCtx.
func (g *Group) AskCtx(ctx context.Context, query string) (bool, error) {
	return endpoint.AskText(ctx, g, query)
}

// Prepare implements Endpoint: the template is analyzed once, prepared
// once per shard (original and pushdown forms), and every execution
// routes or fans out per its bound arguments. A template without
// parameters is a query text, kept in the text-plan cache (planFor).
func (g *Group) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	var p *groupPrepared
	var err error
	if len(params) == 0 {
		p, err = g.planFor(template)
	} else {
		p, err = g.prepare(template, params)
	}
	if err != nil {
		return nil, err
	}
	for _, hs := range [...][]endpoint.PreparedQuery{p.push, p.orig} {
		for _, h := range hs {
			if _, ok := h.(endpoint.BatchStreamer); ok {
				return groupBatched{p}, nil
			}
		}
	}
	return p, nil
}

// Stats implements StatsReporter by aggregating the shard endpoints'
// statistics — the federation's cost is the sum of what its shards did.
func (g *Group) Stats() endpoint.Stats {
	var sum endpoint.Stats
	for _, sh := range g.shards {
		if sr, ok := sh.(endpoint.StatsReporter); ok {
			s := sr.Stats()
			sum.Queries += s.Queries
			sum.Rows += s.Rows
			sum.Truncations += s.Truncations
			sum.Denied += s.Denied
		}
	}
	return sum
}

// ResetStats implements StatsReporter.
func (g *Group) ResetStats() {
	for _, sh := range g.shards {
		if sr, ok := sh.(endpoint.StatsReporter); ok {
			sr.ResetStats()
		}
	}
}

// fanout runs task(i) for every shard index through flight.Each, one
// goroutine per shard (inline for a one-shard group). The first error
// cancels the others' context; the lowest-indexed shard error is
// returned, never a sibling's echoing cancellation, and a caller's
// cancellation never as a clean success with holes in the output.
func (g *Group) fanout(ctx context.Context, task func(ctx context.Context, i int) error) error {
	return flight.Each(ctx, len(g.shards), len(g.shards), task)
}

// errFound is the task error that stops an ASK fan-out once a shard has
// answered true.
var errFound = errors.New("shard: a shard answered true")

// fanoutAsk runs per-shard ASK probes concurrently and short-circuits
// on the first true: remaining probes are cancelled, their outcomes
// discarded. A shard error does not cancel its siblings, since one of
// them may still answer true; with no true answer, the lowest-indexed
// shard error (a quota rejection, say) or a caller-context cancellation
// surfaces instead of being folded into a clean false.
func (g *Group) fanoutAsk(ctx context.Context, probe func(ctx context.Context, i int) (bool, error)) (bool, error) {
	errs := make([]error, len(g.shards))
	err := g.fanout(ctx, func(ctx context.Context, i int) error {
		ok, err := probe(ctx, i)
		if ok {
			return errFound
		}
		errs[i] = err
		return nil
	})
	if errors.Is(err, errFound) {
		return true, nil
	}
	return false, cmp.Or(err, cmp.Or(errs...))
}

var (
	_ endpoint.Endpoint      = (*Group)(nil)
	_ endpoint.StatsReporter = (*Group)(nil)
)
