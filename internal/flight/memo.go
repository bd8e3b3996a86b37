package flight

import (
	"context"
	"sync"
)

// Memo remembers what a Group forgets: the outcome of fn per key, errors
// included, until Invalidate. Concurrent misses on a key share one
// computation. The zero value is ready to use; a Memo must not be
// copied after first use.
type Memo[K comparable, V any] struct {
	group Group[K, outcome[V]]

	mu      sync.Mutex
	results map[K]outcome[V]
}

type outcome[V any] struct {
	val V
	err error
	hit bool // found stored, not computed, by the flight that returned it
}

// Get returns the stored outcome for key, computing it with fn on first
// use. fn runs under a context that carries ctx's values but none of its
// cancellation: it completes and is stored for whoever asks next, while
// each caller stops waiting with its own ctx.Err() — which is never
// stored — as soon as its context ends. That is intended: what a Memo
// holds is a shared build, a candidate index (core.IndexCache, an
// aligner's own prober), which the next caller would otherwise start
// over; a computation that must stop with its callers is no Memo's. A
// panic in fn surfaces as ErrPanicked and stores nothing. hit reports
// that this call found the outcome stored (a caller that joined a
// computation another started is neither a hit nor the one that
// computed).
func (m *Memo[K, V]) Get(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, err error, hit bool) {
	if got, ok := m.load(key); ok {
		return got.val, got.err, true
	}
	got, flightErr, shared := m.group.DoCtx(ctx, key, func() (outcome[V], error) {
		// A flight forgets its key once served: a caller that missed
		// above and got here after an earlier flight finished must find
		// that flight's outcome, not compute again.
		if got, ok := m.load(key); ok {
			got.hit = true
			return got, nil
		}
		var got outcome[V]
		got.val, got.err = fn(context.WithoutCancel(ctx))
		m.mu.Lock()
		if m.results == nil {
			m.results = make(map[K]outcome[V])
		}
		m.results[key] = got
		m.mu.Unlock()
		return got, nil
	})
	if flightErr != nil {
		return v, flightErr, false
	}
	return got.val, got.err, got.hit && !shared
}

func (m *Memo[K, V]) load(key K) (outcome[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	got, ok := m.results[key]
	return got, ok
}

// Invalidate drops every stored outcome, so the next Get computes again.
func (m *Memo[K, V]) Invalidate() {
	m.mu.Lock()
	m.results = nil
	m.mu.Unlock()
}

// Len reports how many outcomes are stored.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.results)
}
