// Package flight holds the module's concurrency primitives:
//
//   - Group, a small generic singleflight group: concurrent calls that
//     share a key share one execution and receive its result. It is the
//     coalescing primitive behind endpoint.Caching (deduplicating
//     identical in-flight SPARQL queries). Unlike a cache, a Group
//     remembers nothing: once an execution completes and its waiters
//     are served, the key is forgotten and the next call runs the
//     function again.
//   - Memo, the Group that remembers — the body of the two candidate
//     index builds, core.IndexCache and an aligner's own prober.
//   - Claims, the Memo a call asks many keys of at once, fetching its
//     misses together — the aligner's per-alignment object memo.
//   - Each, the one index-ordered parallel loop: the aligner's stages
//     and batches, a shard group's fan-out and the candidate index's
//     sampling pass all run their tasks through it.
package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrPanicked is returned (wrapped around the panic value) to every
// caller of an execution whose function panicked.
var ErrPanicked = errors.New("flight: in-flight call panicked")

// Group deduplicates concurrent calls by key. The zero value is ready
// to use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
	dups int
}

// DoCtx executes fn, making sure only one execution per key is in
// flight at a time. Callers arriving while an execution runs wait for
// it and receive the same result; shared reports that the result came
// from an execution another caller initiated. fn runs in its own
// goroutine and always completes, serving every caller still joined to
// the flight, while each caller — the initiator included — stops
// waiting and returns ctx.Err() as soon as its own context ends. fn
// should therefore not abort on any individual caller's context (see
// context.WithoutCancel). A caller whose context has already ended
// neither starts nor joins an execution. A panic in fn is recovered and
// surfaces to every caller as an error wrapping ErrPanicked.
func (g *Group[K, V]) DoCtx(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	if err := ctx.Err(); err != nil {
		return v, err, false
	}
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err(), false
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	go func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("%w: %v", ErrPanicked, r)
			}
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
		c.val, c.err = fn()
	}()

	select {
	case <-c.done:
		return c.val, c.err, false
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err(), false
	}
}

// InFlight reports how many keys currently have an execution running.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// Waiting reports how many callers joined the in-flight execution of
// key after it started (the initiator is not counted).
func (g *Group[K, V]) Waiting(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c.dups
	}
	return 0
}
