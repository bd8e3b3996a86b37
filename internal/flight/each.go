package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Each runs fn(ctx, i) for i = 0 … n-1 on at most workers goroutines.
// Tasks write their results into caller-owned slots indexed by i, so a
// parallel run's output is positionally that of the sequential one.
//
// With workers <= 1 or n <= 1 the tasks run inline, in order, under
// ctx itself, and the first error is returned at once. Otherwise they
// run under a context derived from ctx that Each cancels at the first
// task error and on return. Either way a task that has not started when
// a task has failed or ctx has ended is skipped.
//
// Each returns the lowest-indexed task error. A context.Canceled a task
// returns once the derived context has ended is only an echo of another
// task's failure, or of the caller's cancellation, and is never reported
// in its place. With no task error Each returns ctx.Err(): a run the
// caller cut short is never a clean success with holes in its output.
func Each(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				err := fn(ctx, i)
				if err == nil || errors.Is(err, context.Canceled) && ctx.Err() != nil {
					continue
				}
				errs[i] = err
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return parent.Err()
}
