package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// Hedged-read mechanics under the race detector: the hedge fires after
// the delay, the fast replica's answer wins, and the slow attempt's
// context is canceled — including for streams, where the winner's
// context must survive until the stream is closed.

// gateEndpoint forwards to inner but blocks each call until its context
// is canceled or the gate opens; it records cancellations.
type gateEndpoint struct {
	inner    endpoint.Endpoint
	delay    time.Duration
	canceled atomic.Int64
	calls    atomic.Int64
}

func (g *gateEndpoint) wait(ctx context.Context) error {
	g.calls.Add(1)
	select {
	case <-ctx.Done():
		g.canceled.Add(1)
		return ctx.Err()
	case <-time.After(g.delay):
		return nil
	}
}

func (g *gateEndpoint) Name() string { return g.inner.Name() }

func (g *gateEndpoint) SelectCtx(ctx context.Context, q string) (*sparql.Result, error) {
	if err := g.wait(ctx); err != nil {
		return nil, err
	}
	return g.inner.SelectCtx(ctx, q)
}

func (g *gateEndpoint) AskCtx(ctx context.Context, q string) (bool, error) {
	if err := g.wait(ctx); err != nil {
		return false, err
	}
	return g.inner.AskCtx(ctx, q)
}

func (g *gateEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	return endpoint.NewTextPrepared(g, tmpl, params...)
}

func hedgeFixture(t *testing.T) (*gateEndpoint, *Replicas) {
	t.Helper()
	k := kb.New("hedge/shard-0-of-1")
	for i := 0; i < 20; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%d", i), "http://x/p", fmt.Sprintf("http://x/o%d", i))
	}
	k.Freeze()
	const seed = 5
	slow := &gateEndpoint{inner: endpoint.NewLocal(k, seed), delay: 10 * time.Second}
	fast := endpoint.NewLocal(k, seed)
	set, err := NewReplicas([]endpoint.Endpoint{slow, fast}, Options{
		HedgeDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	return slow, set
}

func TestHedgeCancelsLoser(t *testing.T) {
	slow, set := hedgeFixture(t)
	start := time.Now()
	res, err := set.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("hedged Select returned %d rows, want 20", len(res.Rows))
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("hedged Select took %v — the hedge never fired", d)
	}
	// The slow attempt was launched and then canceled by the win.
	deadline := time.Now().Add(5 * time.Second)
	for slow.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("loser was never canceled (calls=%d)", slow.calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHedgeStreamKeepsWinnerAlive(t *testing.T) {
	slow, set := hedgeFixture(t)
	pq, err := set.Prepare("SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("winner stream failed after hedge: %v", err)
	}
	rows.Close()
	if n != 20 {
		t.Fatalf("hedged stream yielded %d rows, want 20", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slow.canceled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing stream attempt was never canceled")
		}
		time.Sleep(time.Millisecond)
	}
}

// A fatal (non-retriable) error must propagate immediately, not burn
// the failover ladder: every replica would answer the same.
func TestFatalErrorSkipsFailover(t *testing.T) {
	k := kb.New("fatal/shard-0-of-1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.Freeze()
	quotaed := endpoint.NewLocalRestricted(k, 1, endpoint.Quota{MaxQueries: 1})
	if _, err := quotaed.AskCtx(context.Background(), "ASK { ?x <http://x/p> ?y }"); err != nil {
		t.Fatal(err)
	}
	backup := endpoint.NewLocal(k, 1)
	set, err := NewReplicas([]endpoint.Endpoint{quotaed, backup}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	_, err = set.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x <http://x/p> ?y }")
	if !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("quota error was masked: %v", err)
	}
}

// Retriable failures fail over within one call: first replica down,
// second answers.
func TestFailoverWithinOneCall(t *testing.T) {
	k := kb.New("fo/shard-0-of-1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.Freeze()
	dead := endpoint.NewClient(k.Name(), "http://127.0.0.1:1/sparql", nil)
	alive := endpoint.NewLocal(k, 1)
	set, err := NewReplicas([]endpoint.Endpoint{dead, alive}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	res, err := set.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatalf("failover did not recover: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("failover answered %d rows, want 1", len(res.Rows))
	}
}
