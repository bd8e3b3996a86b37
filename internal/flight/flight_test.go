package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoCoalescesConcurrentCalls(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	results := make([]int, n)

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := g.DoCtx(context.Background(), "k", func() (int, error) {
			execs.Add(1)
			close(started)
			<-gate
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader: v=%d err=%v", v, err)
		}
	}()
	<-started

	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.DoCtx(context.Background(), "k", func() (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// release only once every waiter has joined the flight
	for g.Waiting("k") < n {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	if got := sharedCount.Load(); got != n {
		t.Fatalf("shared = %d, want %d", got, n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result %d = %d", i, v)
		}
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after completion", g.InFlight())
	}
}

func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int, int]
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.DoCtx(context.Background(), i, func() (int, error) { return i * i, nil })
			if err != nil || v != i*i {
				t.Errorf("key %d: v=%d err=%v", i, v, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestDoForgetsCompletedKeys(t *testing.T) {
	var g Group[string, int]
	runs := 0
	for i := 0; i < 3; i++ {
		v, err, shared := g.DoCtx(context.Background(), "k", func() (int, error) { runs++; return runs, nil })
		if err != nil || shared {
			t.Fatalf("call %d: v=%d err=%v shared=%v", i, v, err, shared)
		}
		if v != i+1 {
			t.Fatalf("call %d: v=%d (group must not memoize)", i, v)
		}
	}
}

func TestDoPropagatesErrors(t *testing.T) {
	var g Group[string, int]
	boom := errors.New("boom")
	_, err, _ := g.DoCtx(context.Background(), "k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoCtxWaiterCancellation(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	started := make(chan struct{})
	go g.DoCtx(context.Background(), "k", func() (int, error) {
		close(started)
		<-gate
		return 1, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, shared := g.DoCtx(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) || shared {
		t.Fatalf("err=%v shared=%v", err, shared)
	}
	close(gate)
}

func TestDoPanicServesWaiters(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	started := make(chan struct{})

	initiatorErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtx(context.Background(), "k", func() (int, error) {
			close(started)
			<-gate
			panic("kaboom")
		})
		initiatorErr <- err
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtx(context.Background(), "k", func() (int, error) { return 0, nil })
		waiterErr <- err
	}()
	for g.Waiting("k") < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)

	for _, ch := range []chan error{initiatorErr, waiterErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrPanicked) {
				t.Fatalf("err = %v, want ErrPanicked", err)
			}
		case <-time.After(time.Second):
			t.Fatal("caller hung after panic")
		}
	}
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d after panic", g.InFlight())
	}
}
