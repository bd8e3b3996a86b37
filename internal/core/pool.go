package core

import (
	"context"

	"sofya/internal/flight"
)

// runStage runs the endpoint-bound tasks of one pipeline stage,
// admitting every task through the aligner's shared semaphore. The
// semaphore is what makes Config.Parallelism a global bound: however
// many relations AlignRelations has in flight, at most Parallelism
// stage tasks touch the endpoints at any moment, instead of the
// Parallelism² a nested per-stage pool would allow.
//
// Stage tasks must be leaves — they issue endpoint queries but never
// call runStage themselves, so holding a slot cannot deadlock.
// Scheduling and error handling are flight.Each's (whole-relation tasks,
// which occupy no endpoint themselves, call it directly): tasks fill
// slots indexed by i, a task skipped after a failure never takes a slot,
// the first failure cancels the probes its siblings have in flight (the
// context Each derives from ctx), and the lowest-indexed error returns.
func (a *Aligner) runStage(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return flight.Each(ctx, cap(a.sem), n, func(ctx context.Context, i int) error {
		select {
		case a.sem <- struct{}{}:
		default: // full: only now read ctx.Done, which makes its channel
			select {
			case a.sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		defer func() { <-a.sem }()
		return fn(ctx, i)
	})
}

// stageGroup is how many items of a stage — candidates to validate,
// sibling pairs to search — one stage task takes when an endpoint groups
// probes (endpoint.BatchStreamer): the task's probes of a kind are then
// one request per shard. Sixteen, not the whole stage: a task holds what
// its items sampled until their object fetches are back, and a 240-pair
// UBS stage still makes fifteen tasks for the pool to overlap.
const stageGroup = 16

// runRanges is runStage over the items 0 … n-1 of a stage, rangeSize of
// them a task: fn(lo, hi) handles items lo … hi-1. Against endpoints that
// do not group, a task is one item and issues the probes it always did.
func (a *Aligner) runRanges(ctx context.Context, n int, fn func(ctx context.Context, lo, hi int) error) error {
	return a.runStage(ctx, (n+a.rangeSize-1)/a.rangeSize, func(ctx context.Context, t int) error {
		return fn(ctx, t*a.rangeSize, min(n, (t+1)*a.rangeSize))
	})
}
