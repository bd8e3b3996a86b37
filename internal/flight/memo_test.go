package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoContract is the one table for what core.Cache and
// core.IndexCache both are. CI runs it under -race -count=300: the
// second case is a scheduling race that shows a few times per thousand.
func TestMemoContract(t *testing.T) {
	bg := context.Background()
	boom := errors.New("boom")

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"concurrent misses compute once", func(t *testing.T) {
			var m Memo[string, int]
			var computes, hits atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, err, hit := m.Get(bg, "k", func(context.Context) (int, error) {
						computes.Add(1)
						time.Sleep(time.Millisecond)
						return 42, nil
					})
					if v != 42 || err != nil {
						t.Errorf("Get = %d, %v", v, err)
					}
					if hit {
						hits.Add(1)
					}
				}()
			}
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Fatalf("%d computations, want 1", n)
			}
			// Everyone but the one that computed either joined its flight
			// (not a hit) or found its outcome stored (a hit).
			if n := hits.Load(); n > 15 {
				t.Fatalf("%d of 16 callers report a hit, one of them computed", n)
			}
			if _, _, hit := m.Get(bg, "k", nil); !hit || m.Len() != 1 {
				t.Fatalf("warm Get: hit = %v, Len = %d", hit, m.Len())
			}
		}},
		{"a caller that missed before a flight finished finds its result", func(t *testing.T) {
			// No sleep in fn: flights finish while other callers sit
			// between their miss and their join. Each of those must find
			// the stored outcome inside its own flight, not compute again.
			var m Memo[int, int]
			var computes atomic.Int32
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 16; k++ {
						v, err, _ := m.Get(bg, k, func(context.Context) (int, error) {
							computes.Add(1)
							return k * k, nil
						})
						if v != k*k || err != nil {
							t.Errorf("Get(%d) = %d, %v", k, v, err)
						}
					}
				}()
			}
			wg.Wait()
			if n := computes.Load(); n != 16 {
				t.Fatalf("%d computations for 16 keys", n)
			}
		}},
		{"errors are cached until Invalidate", func(t *testing.T) {
			var m Memo[string, int]
			computes := 0
			fn := func(context.Context) (int, error) { computes++; return 0, boom }
			for i, wantHit := range []bool{false, true, true} {
				if _, err, hit := m.Get(bg, "k", fn); !errors.Is(err, boom) || hit != wantHit {
					t.Fatalf("call %d: err = %v, hit = %v", i, err, hit)
				}
			}
			if computes != 1 || m.Len() != 1 {
				t.Fatalf("%d computations, Len = %d: the error was not stored", computes, m.Len())
			}
			m.Get(bg, "other", func(context.Context) (int, error) { return 1, nil })
			m.Invalidate("k")
			if m.Len() != 1 {
				t.Fatalf("Invalidate(k) left %d entries, want the other one", m.Len())
			}
			if v, err, hit := m.Get(bg, "k", func(context.Context) (int, error) { return 7, nil }); v != 7 || err != nil || hit {
				t.Fatalf("after Invalidate: %d, %v, hit = %v", v, err, hit)
			}
			if m.Invalidate(); m.Len() != 0 {
				t.Fatalf("Invalidate() left %d entries", m.Len())
			}
		}},
		{"a cancelled caller neither starts nor poisons a computation", func(t *testing.T) {
			var m Memo[string, int]
			dead, cancel := context.WithCancel(bg)
			cancel()
			if _, err, _ := m.Get(dead, "k", func(context.Context) (int, error) {
				t.Error("a caller whose context had ended started a computation")
				return 0, nil
			}); !errors.Is(err, context.Canceled) || m.Len() != 0 {
				t.Fatalf("pre-cancelled: err = %v, Len = %d", err, m.Len())
			}

			// Cancelled mid-flight: the caller leaves at once with its own
			// ctx.Err(); fn sees no cancellation, completes, and its
			// outcome — not the caller's error — is what is stored.
			ctx, cancel := context.WithCancel(context.WithValue(bg, memoKey{}, "carried"))
			started, gate := make(chan struct{}), make(chan struct{})
			done := make(chan error, 1)
			go func() {
				_, err, _ := m.Get(ctx, "k", func(fctx context.Context) (int, error) {
					close(started)
					<-gate
					if fctx.Value(memoKey{}) != "carried" {
						return 0, errors.New("fn's context lost the caller's values")
					}
					return 9, fctx.Err()
				})
				done <- err
			}()
			<-started
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled caller: err = %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled caller still waits for the computation")
			}
			if m.Len() != 0 {
				t.Fatal("something was stored before the computation finished")
			}
			close(gate)
			if v, err, _ := m.Get(bg, "k", func(context.Context) (int, error) {
				return 0, errors.New("computed again")
			}); v != 9 || err != nil {
				t.Fatalf("next caller: %d, %v — want the detached computation's 9", v, err)
			}
		}},
		{"a panic surfaces as ErrPanicked and is not cached", func(t *testing.T) {
			var m Memo[string, int]
			if _, err, _ := m.Get(bg, "k", func(context.Context) (int, error) { panic("kaboom") }); !errors.Is(err, ErrPanicked) {
				t.Fatalf("err = %v, want ErrPanicked", err)
			}
			if m.Len() != 0 {
				t.Fatal("the panic was stored")
			}
			if v, err, hit := m.Get(bg, "k", func(context.Context) (int, error) { return 3, nil }); v != 3 || err != nil || hit {
				t.Fatalf("after the panic: %d, %v, hit = %v", v, err, hit)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

type memoKey struct{}
