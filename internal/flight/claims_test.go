package flight

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestClaimsContract is the table for what the aligner's object memo
// relies on. CI runs it under -race -count=300.
func TestClaimsContract(t *testing.T) {
	boom := errors.New("boom")
	square := func(keys []int) func(miss []int) ([]int, error) {
		return func(miss []int) ([]int, error) {
			out := make([]int, len(miss))
			for j, i := range miss {
				out[j] = keys[i] * keys[i]
			}
			return out, nil
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"overlapping concurrent calls fetch every key once", func(t *testing.T) {
			var c Claims[int, int]
			var mu sync.Mutex
			fetched := map[int]int{}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < 8; round++ {
						// keys g+round … g+round+7, one of them twice
						keys := []int{g + round}
						for k := g + round; k < g+round+8; k++ {
							keys = append(keys, k)
						}
						got, err := c.Get(keys, func(miss []int) ([]int, error) {
							mu.Lock()
							for _, i := range miss {
								fetched[keys[i]]++
							}
							mu.Unlock()
							return square(keys)(miss)
						})
						if err != nil {
							t.Error(err)
							return
						}
						for i, k := range keys {
							if got[i] != k*k {
								t.Errorf("key %d = %d", k, got[i])
							}
						}
					}
				}()
			}
			wg.Wait()
			for k, n := range fetched {
				if n != 1 {
					t.Errorf("key %d fetched %d times", k, n)
				}
			}
			if len(fetched) != 22 || c.Len() != 22 {
				t.Fatalf("%d keys fetched, %d claimed, want 22", len(fetched), c.Len())
			}
		}},
		{"a call's misses are one fetch, first indices in order", func(t *testing.T) {
			var c Claims[string, int]
			c.Get([]string{"b"}, func(miss []int) ([]int, error) { return []int{2}, nil })
			var calls [][]int
			keys := []string{"a", "b", "a", "c", "b"}
			got, err := c.Get(keys, func(miss []int) ([]int, error) {
				calls = append(calls, miss)
				return []int{1, 3}, nil
			})
			if err != nil || !reflect.DeepEqual(got, []int{1, 2, 1, 3, 2}) || !reflect.DeepEqual(calls, [][]int{{0, 3}}) {
				t.Fatalf("Get = %v, %v; fetches %v", got, err, calls)
			}
			if _, err := c.Get(keys, func([]int) ([]int, error) { t.Error("fetched a claimed key"); return nil, nil }); err != nil {
				t.Fatal(err)
			}
		}},
		{"a failed fetch fails its waiters with its error, and later calls too", func(t *testing.T) {
			var c Claims[int, int]
			release := make(chan struct{})
			errs := make(chan error, 2)
			before := runtime.NumGoroutine()
			go func() {
				_, err := c.Get([]int{1, 2}, func([]int) ([]int, error) {
					<-release
					return nil, boom
				})
				errs <- err
			}()
			for c.Len() < 2 {
				runtime.Gosched()
			}
			go func() {
				_, err := c.Get([]int{3, 2}, square([]int{3, 2}))
				errs <- err
			}()
			for c.waitingCalls() == 0 {
				runtime.Gosched()
			}
			close(release)
			first, second := <-errs, <-errs
			if first != boom || second != boom {
				t.Fatalf("errors %v, %v; want both the fetch's own", first, second)
			}
			if _, err := c.Get([]int{1}, nil); err != boom {
				t.Fatalf("later call: %v", err)
			}
			if got, err := c.Get([]int{3}, nil); err != nil || got[0] != 9 {
				t.Fatalf("the waiter's own miss: %v, %v", got, err)
			}
			waitGoroutines(t, before)
		}},
		{"a panic in a fetch reaches its caller and fails its keys", func(t *testing.T) {
			var c Claims[int, int]
			func() {
				defer func() {
					if r := recover(); r != "kaboom" {
						t.Fatalf("recovered %v, want the fetch's panic", r)
					}
				}()
				c.Get([]int{1}, func([]int) ([]int, error) { panic("kaboom") })
			}()
			if _, err := c.Get([]int{1}, nil); !errors.Is(err, ErrPanicked) {
				t.Fatalf("after the panic: %v, want ErrPanicked", err)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func (t *Claims[K, V]) waitingCalls() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waiting
}

// waitGoroutines fails t unless the goroutine count falls back to n.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left, want %d:\n%s", runtime.NumGoroutine(), n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func ExampleClaims() {
	var c Claims[string, int]
	fetch := func(keys []string) func(miss []int) ([]int, error) {
		return func(miss []int) ([]int, error) {
			fmt.Println("fetch", len(miss))
			out := make([]int, len(miss))
			for j, i := range miss {
				out[j] = len(keys[i])
			}
			return out, nil
		}
	}
	a := []string{"x", "yy", "x"}
	fmt.Println(c.Get(a, fetch(a)))
	b := []string{"yy", "zzz"}
	fmt.Println(c.Get(b, fetch(b)))
	// Output:
	// fetch 2
	// [1 2 1] <nil>
	// fetch 1
	// [2 3] <nil>
}
