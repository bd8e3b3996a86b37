package endpoint

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"sofya/internal/sparql"
)

const sampleTmpl = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"

// TestLocalPreparedMatchesText: the prepared fast path returns
// byte-identical results to the equivalent text query, RAND() stream
// included, and charges quota and statistics the same way.
func TestLocalPreparedMatchesText(t *testing.T) {
	epText := NewLocal(testKB(), 7)
	epPrep := NewLocal(testKB(), 7)

	want, err := epText.SelectCtx(context.Background(),
		`SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := epPrep.Prepare(sampleTmpl, "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j] != got.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
	ts, ps := epText.Stats(), epPrep.Stats()
	if ts != ps {
		t.Fatalf("stats diverge: text %+v, prepared %+v", ts, ps)
	}
}

func TestLocalPreparedQuotaAndRowCap(t *testing.T) {
	ep := NewLocalRestricted(testKB(), 1, Quota{MaxQueries: 2, MaxRows: 1})
	pq, err := ep.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Truncated {
		t.Fatalf("row cap not applied: %d rows, truncated=%v", len(res.Rows), res.Truncated)
	}
	if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p")); err != nil {
		t.Fatal(err)
	}
	if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p")); err != ErrQuotaExceeded {
		t.Fatalf("err = %v, want quota exceeded", err)
	}
	if st := ep.Stats(); st.Queries != 2 || st.Denied != 1 || st.Truncations != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalPreparedFormMismatch(t *testing.T) {
	ep := NewLocal(testKB(), 1)
	pq, err := ep.Prepare("SELECT ?y WHERE { $s <http://x/p> ?y }", "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.AskCtx(context.Background(), sparql.IRIArg("http://x/a")); err == nil {
		t.Fatal("Ask on a SELECT template should fail")
	}
	apq, err := ep.Prepare("ASK { $s <http://x/p> $o }", "s", "o")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := apq.AskCtx(context.Background(), sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/b"))
	if err != nil || !ok {
		t.Fatalf("ASK = %v, %v", ok, err)
	}
	if _, err := apq.SelectCtx(context.Background(), sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/b")); err == nil {
		t.Fatal("Select on an ASK template should fail")
	}
}

// TestCachingPrepared: identical prepared executions hit the LRU;
// different arguments miss it.
func TestCachingPrepared(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 0)
	pq, err := c.Prepare("SELECT ?y WHERE { $s <http://x/p> ?y }", "s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/a")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/b")); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("cache stats = %+v", st)
	}
	if got := inner.Stats().Queries; got != 2 {
		t.Fatalf("inner queries = %d, want 2", got)
	}
}

// TestCoalescingPrepared: concurrent identical prepared executions
// share one probe.
func TestCoalescingPrepared(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	co := NewCoalescing(inner)
	pq, err := co.Prepare("SELECT ?y WHERE { $s <http://x/p> ?y }", "s")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/a"))
			done <- err
		}()
	}
	key := preparedKey('S', co.Name(), "SELECT ?y WHERE { $s <http://x/p> ?y }", []string{"s"}, []sparql.Arg{sparql.IRIArg("http://x/a")})
	for inner.selects.Load() == 0 || co.sel.Waiting(key) < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(inner.gate)
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if co.Coalesced() != n-1 {
		t.Fatalf("coalesced = %d, want %d", co.Coalesced(), n-1)
	}
}

// TestClientPreparedFallback: the HTTP client's text-interpolation
// fallback produces the same bytes as the in-process prepared path.
func TestClientPreparedFallback(t *testing.T) {
	local := NewLocal(testKB(), 7)
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()
	client := NewClient("test", srv.URL, nil)

	cq, err := client.Prepare(sampleTmpl, "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(2))
	if err != nil {
		t.Fatal(err)
	}

	direct := NewLocal(testKB(), 7)
	dq, err := direct.Prepare(sampleTmpl, "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := dq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if want.Rows[i][j] != got.Rows[i][j] {
				t.Fatalf("row %d differs over HTTP: %v vs %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
}
