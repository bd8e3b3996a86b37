package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sameas"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// probeHook wraps an endpoint so that every probe of a prepared handle
// — a Stream or a SelectCtx — first runs hook(ctx, template); a non-nil
// error from it is the probe's answer.
type probeHook struct {
	endpoint.Endpoint
	hook func(ctx context.Context, tmpl string) error
}

func (e probeHook) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	return hookedHandle{pq, tmpl, e.hook}, err
}

type hookedHandle struct {
	endpoint.PreparedQuery
	tmpl string
	hook func(ctx context.Context, tmpl string) error
}

func (h hookedHandle) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	if err := h.hook(ctx, h.tmpl); err != nil {
		return nil, err
	}
	return h.PreparedQuery.Stream(ctx, args...)
}

func (h hookedHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	if err := h.hook(ctx, h.tmpl); err != nil {
		return nil, err
	}
	return h.PreparedQuery.SelectCtx(ctx, args...)
}

// waitGoroutines fails t unless the goroutine count falls back to n
// within five seconds.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), n)
		}
	}
}

// TestAlignmentStopsWhenCancelled: an alignment whose context is
// cancelled by its k-th probe — the first, the last, or one between, at
// Parallelism 1 and 4 — fails with an error that is context.Canceled,
// sends every later probe under the cancelled context, sends none once
// it has returned, and leaves no goroutine behind.
func TestAlignmentStopsWhenCancelled(t *testing.T) {
	y, d, links := paperWorld()
	r := yNS + "creatorOf"
	before := runtime.NumGoroutine()
	for _, parallelism := range []int{1, 4} {
		cfg := UBSConfig()
		cfg.Parallelism = parallelism
		align := func(ctx context.Context, k int64, cancel func()) (int64, error) {
			var calls atomic.Int64
			var cancelled atomic.Bool
			hook := func(ctx context.Context, _ string) error {
				if cancelled.Load() && ctx.Err() == nil {
					t.Errorf("parallelism %d, k %d: a probe sent under a live context after the cancellation", parallelism, k)
				}
				if calls.Add(1) == k {
					cancel()
					cancelled.Store(true)
				}
				return nil
			}
			a := New(probeHook{endpoint.NewLocal(y, 11), hook}, probeHook{endpoint.NewLocal(d, 22), hook},
				sampling.LinkView{Links: links, KIsA: true}, cfg)
			_, err := a.AlignRelationContext(ctx, r)
			n := calls.Load()
			waitGoroutines(t, before)
			if after := calls.Load(); after != n {
				t.Errorf("parallelism %d, k %d: %d probes sent after the alignment returned", parallelism, k, after-n)
			}
			return n, err
		}
		total, err := align(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{1, total / 3, 2 * total / 3, total} {
			ctx, cancel := context.WithCancel(context.Background())
			n, err := align(ctx, k, cancel)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("parallelism %d, cancelled at probe %d of %d: %v after %d probes", parallelism, k, total, err, n)
			}
		}
	}
}

// wideWorld is a K with one relation r and a K' with n relations that
// each hold r's facts: n candidates to validate, one stage task each.
func wideWorld(n int) (*kb.KB, *kb.KB, *sameas.Links) {
	y, d, links := kb.New("yago"), kb.New("dbpedia"), sameas.New()
	for i := range 30 {
		s, o := "s"+itoa(i), "o"+itoa(i)
		links.Add(yNS+s, dNS+s)
		links.Add(yNS+o, dNS+o)
		y.AddIRIs(yNS+s, yNS+"r", yNS+o)
		for j := range n {
			d.AddIRIs(dNS+s, dNS+"r"+itoa(j), dNS+o)
		}
	}
	return y, d, links
}

// TestStageFailureCancelsSiblings: at Parallelism 4, when one stage
// task's object fetch fails, the probes its three siblings have in
// flight are cancelled — each blocks until its context ends, and fails
// the test if that takes five seconds — the alignment fails with the
// fetch's error, not with their context.Canceled, and none of the
// stage's other four tasks starts.
func TestStageFailureCancelsSiblings(t *testing.T) {
	y, d, links := wideWorld(8)
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	var samples, blocked atomic.Int32
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	a := New(
		probeHook{endpoint.NewLocal(y, 11), func(ctx context.Context, tmpl string) error {
			if tmpl != sampling.TmplObjects {
				return nil
			}
			for blocked.Load() < 3 {
				runtime.Gosched()
			}
			return boom
		}},
		probeHook{endpoint.NewLocal(d, 22), func(ctx context.Context, tmpl string) error {
			if tmpl != sampling.TmplSample || samples.Add(1) > 3 {
				return nil
			}
			blocked.Add(1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				t.Error("a sibling's probe was not cancelled")
				return errors.New("not cancelled")
			}
		}},
		sampling.LinkView{Links: links, KIsA: true}, cfg)
	_, err := a.AlignRelationContext(context.Background(), yNS+"r")
	if !errors.Is(err, boom) || errors.Is(err, context.Canceled) {
		t.Errorf("alignment failed with %v, want the fetch's error alone", err)
	}
	if n := samples.Load(); n != 4 {
		t.Errorf("%d validation tasks sampled, want the 4 in flight when the fetch failed", n)
	}
	waitGoroutines(t, before)
}

// TestCancelledCallersStoreNothing: a caller whose context ends — before
// it asks, or while the computation it started is under way — gets
// ctx.Err(), and the next caller, under context.Background(), gets what
// a fresh aligner computes, from an aligner whose candidate index was
// being built.
func TestCancelledCallersStoreNothing(t *testing.T) {
	y, d, links := paperWorld()
	r := yNS + "directedBy"
	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	want, err := alignerD2Y(cfg).AlignRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// gated is K' with its first text query — the candidate index's
	// inventory — held until release closes.
	gated := func() (endpoint.Endpoint, chan struct{}, chan struct{}) {
		entered, release := make(chan struct{}), make(chan struct{})
		var first atomic.Bool
		return inventoryGate{endpoint.NewLocal(d, 4), &first, entered, release}, entered, release
	}
	for _, tc := range []struct {
		name  string
		align func(a *Aligner) func(context.Context) ([]Alignment, error)
	}{
		{"aligner", func(a *Aligner) func(context.Context) ([]Alignment, error) {
			return func(ctx context.Context) ([]Alignment, error) { return a.AlignRelationContext(ctx, r) }
		}},
	} {
		kd, entered, release := gated()
		align := tc.align(New(endpoint.NewLocal(y, 3), kd, sampling.LinkView{Links: links, KIsA: true}, cfg))
		if _, err := align(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled before asking: %v", tc.name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errs := make(chan error, 1)
		go func() {
			_, err := align(ctx)
			errs <- err
		}()
		<-entered
		cancel()
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled while waiting: %v", tc.name, err)
		}
		close(release)
		got, err := align(context.Background())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s, next caller: %v; alignments equal a fresh aligner's: %v", tc.name, err, reflect.DeepEqual(got, want))
		}
	}
}

// inventoryGate holds its first text query until release closes.
type inventoryGate struct {
	endpoint.Endpoint
	first            *atomic.Bool
	entered, release chan struct{}
}

func (e inventoryGate) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	if e.first.CompareAndSwap(false, true) {
		close(e.entered)
		<-e.release
	}
	return e.Endpoint.SelectCtx(ctx, query)
}
