package flight

import (
	"fmt"
	"sync"
)

// Claims remembers one value per key, each computed exactly once, by the
// first call that asks for it. Where Memo computes one key per call,
// a Claims call asks for many keys at once: it claims the keys no call
// has asked for before, computes them together with one call of its
// fetch — so a caller can send its misses as one group — and then waits
// for the keys earlier calls claimed. A fetch never waits on another
// call, so callers cannot deadlock on each other, and which call claims
// a key is the only thing timing decides: every key is fetched once.
// The zero value is ready to use; a Claims must not be copied after
// first use.
type Claims[K comparable, V any] struct {
	mu      sync.Mutex
	keys    map[K]claimed[V]
	waiting int // calls blocked on another call's claim
}

// claimed locates a key's value: entry i of the claim that fetches it.
type claimed[V any] struct {
	c *claim[V]
	i int
}

// claim is the fetch of one call's misses. vals and err are written
// once, before done closes, and only read after.
type claim[V any] struct {
	done chan struct{}
	vals []V
	err  error
}

// Get returns the value of each of keys, in order. The keys no call has
// claimed — a key repeated within keys counts once — are claimed by this
// call and computed by one call fetch(miss), miss their first indices in
// keys, in order; fetch returns one value per index. Get then waits for
// the keys other calls claimed. A fetch's error, or a panic in it (as an
// error wrapping ErrPanicked, the panic going on in the fetching call),
// is the outcome of every key it claimed, for every call that asks for
// any of them, now or later.
func (t *Claims[K, V]) Get(keys []K, fetch func(miss []int) ([]V, error)) ([]V, error) {
	at := make([]claimed[V], len(keys))
	var mine *claim[V]
	var miss []int
	t.mu.Lock()
	if t.keys == nil {
		t.keys = make(map[K]claimed[V], len(keys))
	}
	for i, k := range keys {
		if got, ok := t.keys[k]; ok {
			at[i] = got
			continue
		}
		if mine == nil {
			mine = &claim[V]{done: make(chan struct{})}
		}
		at[i] = claimed[V]{mine, len(miss)}
		t.keys[k] = at[i]
		miss = append(miss, i)
	}
	t.mu.Unlock()

	if mine != nil {
		t.fill(mine, miss, fetch)
	}
	out := make([]V, len(keys))
	for i, got := range at {
		select {
		case <-got.c.done:
		default:
			t.mu.Lock()
			t.waiting++
			t.mu.Unlock()
			<-got.c.done
			t.mu.Lock()
			t.waiting--
			t.mu.Unlock()
		}
		if got.c.err != nil {
			return nil, got.c.err
		}
		out[i] = got.c.vals[got.i]
	}
	return out, nil
}

// fill runs fetch for the keys c claimed and publishes its outcome.
func (t *Claims[K, V]) fill(c *claim[V], miss []int, fetch func(miss []int) ([]V, error)) {
	finished := false
	defer func() {
		if !finished {
			r := recover()
			c.err = fmt.Errorf("%w: %v", ErrPanicked, r)
			close(c.done)
			panic(r)
		}
	}()
	c.vals, c.err = fetch(miss)
	finished = true
	close(c.done)
}

// Reserve makes room for n keys in a Claims not yet used, so that one
// sized to what its callers will ask does not grow as they ask it. It
// has no effect on a Claims already used.
func (t *Claims[K, V]) Reserve(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.keys == nil {
		t.keys = make(map[K]claimed[V], n)
	}
}

// Len reports how many keys have been claimed.
func (t *Claims[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.keys)
}
