package core

import (
	"sync"
	"sync/atomic"
)

// runIndexed runs fn(0) … fn(n-1) on at most workers goroutines.
// Tasks write results into caller-owned slots indexed by i, so the
// output of a parallel run is positionally identical to the sequential
// one; only endpoint-level side effects (query arrival order) may
// differ. Once a task fails, tasks that have not started are skipped
// and the lowest-index recorded error is returned — under failure the
// caller discards the partial output anyway.
//
// With workers <= 1 the tasks run inline in order, stopping at the
// first error exactly like the pre-pipeline sequential code.
//
// Work that does not itself occupy an endpoint (whole-relation tasks)
// is scheduled directly; endpoint-bound stage tasks go through
// Aligner.runStage, which adds the global admission gate.
func runIndexed(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failed.Load() {
					continue
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runStage runs the endpoint-bound tasks of one pipeline stage,
// admitting every task through the aligner's shared semaphore. The
// semaphore is what makes Config.Parallelism a global bound: however
// many relations AlignRelations has in flight, at most Parallelism
// stage tasks touch the endpoints at any moment, instead of the
// Parallelism² a nested per-stage pool would allow.
//
// Stage tasks must be leaves — they issue endpoint queries but never
// call runStage themselves, so holding a slot cannot deadlock.
// Scheduling and error handling are runIndexed's; a task skipped after
// a failure never takes a slot.
func (a *Aligner) runStage(n int, fn func(i int) error) error {
	return runIndexed(cap(a.sem), n, func(i int) error {
		a.sem <- struct{}{}
		err := fn(i)
		<-a.sem
		return err
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
func (a *Aligner) runRanges(n int, fn func(lo, hi int) error) error {
	return a.runStage((n+a.rangeSize-1)/a.rangeSize, func(t int) error {
		return fn(t*a.rangeSize, min(n, (t+1)*a.rangeSize))
	})
}
