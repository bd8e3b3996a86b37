package flight

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// taskErr is the error task i fails with.
type taskErr int

func (e taskErr) Error() string { return fmt.Sprintf("task %d failed", int(e)) }

// TestEachContract is Each's contract over every shape of call: the
// inline one (workers <= 1 or n <= 1) and the parallel one alike. CI
// runs it under -race -count=20.
func TestEachContract(t *testing.T) {
	type key struct{}
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 5, 64} {
			inline := workers <= 1 || n <= 1
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				t.Run("every index once, at most workers at a time", func(t *testing.T) {
					parent := context.WithValue(context.Background(), key{}, "caller")
					runs := make([]atomic.Int32, n)
					var inFlight, high atomic.Int32
					var mu sync.Mutex
					var order []int
					err := Each(parent, workers, n, func(ctx context.Context, i int) error {
						cur := inFlight.Add(1)
						for h := high.Load(); cur > h && !high.CompareAndSwap(h, cur); h = high.Load() {
						}
						if inline && ctx != parent {
							t.Errorf("task %d of an inline run did not get the caller's context", i)
						}
						mu.Lock()
						order = append(order, i)
						mu.Unlock()
						runs[i].Add(1)
						time.Sleep(50 * time.Microsecond)
						inFlight.Add(-1)
						return nil
					})
					if err != nil {
						t.Fatalf("Each = %v", err)
					}
					for i := range runs {
						if r := runs[i].Load(); r != 1 {
							t.Errorf("task %d ran %d times", i, r)
						}
					}
					if h := int(high.Load()); h > max(workers, 1) {
						t.Errorf("%d tasks ran at once, want at most %d", h, max(workers, 1))
					}
					if inline && !slices.Equal(order, seq(n)) {
						t.Errorf("inline run order %v", order)
					}
				})

				t.Run("a failure skips what has not started and is the error reported", func(t *testing.T) {
					if n == 0 {
						t.Skip("no task to fail")
					}
					k := n / 2
					var later atomic.Int32
					err := Each(context.Background(), workers, n, func(ctx context.Context, i int) error {
						switch {
						case i == k:
							return taskErr(k)
						case i == 0 && !inline:
							// Still running when k fails: its cancellation is
							// an echo, lower-indexed than the failure itself.
							<-ctx.Done()
							return ctx.Err()
						case i > k:
							later.Add(1)
							if !inline {
								<-ctx.Done()
							}
							return ctx.Err()
						}
						return nil
					})
					if !errors.Is(err, taskErr(k)) {
						t.Errorf("Each = %v, want %v", err, taskErr(k))
					}
					// Only tasks other workers had already started when k
					// failed may run past it.
					allowed := int32(max(workers, 1) - 1)
					if inline {
						allowed = 0
					}
					if l := later.Load(); l > allowed {
						t.Errorf("%d tasks after index %d ran, want at most %d", l, k, allowed)
					}
				})

				t.Run("a parent cancelled beforehand runs nothing", func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					var ran atomic.Int32
					err := Each(ctx, workers, n, func(context.Context, int) error {
						ran.Add(1)
						return nil
					})
					if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
						t.Errorf("Each = %v after running %d tasks, want context.Canceled after none", err, ran.Load())
					}
				})

				t.Run("a parent cancelled mid-run is never a clean success", func(t *testing.T) {
					if n == 0 {
						t.Skip("no task to cancel from")
					}
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					err := Each(ctx, workers, n, func(_ context.Context, i int) error {
						if i == n/2 {
							cancel()
						}
						return nil
					})
					if !errors.Is(err, context.Canceled) {
						t.Errorf("Each = %v, want context.Canceled", err)
					}
				})
			})
		}
	}
}

// seq is 0 … n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
