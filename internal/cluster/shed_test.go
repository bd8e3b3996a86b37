package cluster

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
)

// A replica that sheds under admission control must behave like a
// transient outage, not a semantic failure: traffic fails over to the
// healthy replica, the shedding one takes passive strikes (and is
// ejected after FailAfter), and once its load passes the active prober
// re-admits it — while the healthy replica is never ejected.
func TestReplicasFailOverOnShed(t *testing.T) {
	k := kb.New("shard0")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/c")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/c")

	// Replica 0 serves behind admission control with a single slot and
	// no queue; replica 1 is unrestricted.
	adm := endpoint.NewAdmission(endpoint.NewLocal(k, 1), endpoint.Limits{MaxInFlight: 1})
	srv0 := httptest.NewServer(endpoint.NewServerEndpoint(adm))
	defer srv0.Close()
	srv1 := httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(k, 1)))
	defer srv1.Close()
	c0 := endpoint.NewClient("shard0", srv0.URL, nil)
	c1 := endpoint.NewClient("shard0", srv1.URL, nil)

	reps, err := NewReplicas([]endpoint.Endpoint{c0, c1}, Options{
		FailAfter:     2,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reps.Close()

	// Saturate replica 0 from the inside: an open stream holds its one
	// admission slot, so every HTTP request to it sheds with 429.
	const q = `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`
	pq, err := adm.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hold.Next() {
		t.Fatal("holding stream empty")
	}

	// Traffic keeps succeeding: replica 0 sheds retriably, the set
	// fails over to replica 1 on every call.
	for i := 0; i < 4; i++ {
		res, err := reps.SelectCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("select %d during shed: %v", i, err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("select %d rows = %d, want 3", i, len(res.Rows))
		}
	}
	st := reps.Status()
	if st[0].Errors == 0 {
		t.Fatalf("shedding replica took no passive strikes: %+v", st[0])
	}
	if st[0].Healthy {
		t.Fatalf("shedding replica not ejected after FailAfter strikes: %+v", st[0])
	}
	if !st[1].Healthy || st[1].Requests == 0 {
		t.Fatalf("healthy replica mistreated: %+v", st[1])
	}

	// Release replica 0's slot: the active prober's next ASK succeeds
	// and re-admits it — ejection by shedding is never permanent.
	hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !reps.Status()[0].Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("shedding replica never re-admitted: %+v", reps.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !reps.Status()[1].Healthy {
		t.Fatal("healthy replica was ejected")
	}

	// And the recovered replica serves again.
	res, err := reps.SelectCtx(context.Background(), q)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("post-recovery select: %d rows, %v", len(res.Rows), err)
	}
}

// A quota rejection — same 429 status family, but semantic — must NOT
// fail over: every replica would answer the same, so the error
// propagates and the replica keeps its health.
func TestReplicasQuotaDoesNotFailOver(t *testing.T) {
	k := kb.New("shard0")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")

	q0 := endpoint.NewLocalRestricted(k, 1, endpoint.Quota{MaxQueries: 1})
	srv0 := httptest.NewServer(endpoint.NewServer(q0))
	defer srv0.Close()
	srv1 := httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(k, 1)))
	defer srv1.Close()

	reps, err := NewReplicas([]endpoint.Endpoint{
		endpoint.NewClient("shard0", srv0.URL, nil),
		endpoint.NewClient("shard0", srv1.URL, nil),
	}, Options{FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reps.Close()

	const q = `SELECT ?x WHERE { ?x <http://x/p> ?y }`
	if _, err := reps.SelectCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	// Replica 0's quota is spent: the next call must surface the quota
	// error, not mask it by retrying replica 1.
	if _, err := reps.SelectCtx(context.Background(), q); !errors.Is(err, endpoint.ErrQuotaExceeded) || errors.Is(err, endpoint.ErrOverloaded) {
		t.Fatalf("quota err = %v, want ErrQuotaExceeded (no failover)", err)
	}
	st := reps.Status()
	if !st[0].Healthy {
		t.Fatal("semantic quota error must not eject the replica")
	}
	if st[1].Requests != 0 {
		t.Fatalf("quota error leaked to replica 1: %+v", st[1])
	}
}
