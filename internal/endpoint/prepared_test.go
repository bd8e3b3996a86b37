package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"sofya/internal/rdf"
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
	for inner.selects.Load() == 0 || co.drains.Waiting(key) < n-1 {
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

// TestLocalTextPrepare: a template without parameters is a query text.
// Its handle answers what SelectCtx answers for the text and what a
// template handle answers for the same query — rows (a RAND() sample's
// included), row cap, statistics and the quota's refusal — and it runs
// on the plan the engine caches for the text's shape: preparing a
// thousand texts of one shape compiles one plan.
func TestLocalTextPrepare(t *testing.T) {
	ctx := context.Background()
	const text = `SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 6`
	quota := Quota{MaxQueries: 3, MaxRows: 4}
	args := []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(6)}
	drain := func(open func(PreparedQuery) (Rows, error)) func(PreparedQuery) (*sparql.Result, error) {
		return func(pq PreparedQuery) (*sparql.Result, error) {
			rows, err := open(pq)
			if err != nil {
				return nil, err
			}
			defer rows.Close()
			res := &sparql.Result{Vars: rows.Vars()}
			for rows.Next() {
				res.Rows = append(res.Rows, append([]rdf.Term(nil), rows.Row()...))
			}
			res.Truncated = rows.Truncated()
			return res, rows.Err()
		}
	}
	ways := func(args ...sparql.Arg) []func(PreparedQuery) (*sparql.Result, error) {
		return []func(PreparedQuery) (*sparql.Result, error){
			func(pq PreparedQuery) (*sparql.Result, error) { return pq.SelectCtx(ctx, args...) },
			drain(func(pq PreparedQuery) (Rows, error) { return pq.Stream(ctx, args...) }),
			drain(func(pq PreparedQuery) (Rows, error) { return StreamBorrowed(ctx, pq, args...) }),
		}
	}

	byText := NewLocalRestricted(bigKB(40), 7, quota)
	var want []*sparql.Result
	for range ways() {
		res, err := byText.SelectCtx(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	if len(want[0].Rows) != 4 || !want[0].Truncated {
		t.Fatalf("%d rows, truncated %v: the fixture should run into the row cap", len(want[0].Rows), want[0].Truncated)
	}
	_, wantDenied := byText.SelectCtx(ctx, text)

	for name, c := range map[string]struct {
		text   string
		params []string
		args   []sparql.Arg
	}{"text handle": {text: text}, "template handle": {sampleTmpl, []string{"r", "n"}, args}} {
		ep := NewLocalRestricted(bigKB(40), 7, quota)
		pq, err := ep.Prepare(c.text, c.params...)
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range ways(c.args...) {
			got, err := run(pq)
			if err != nil {
				t.Fatalf("%s, way %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s, way %d: %v, SelectCtx of the text gives %v", name, i, got, want[i])
			}
		}
		if _, err := pq.SelectCtx(ctx, c.args...); err != wantDenied || err != ErrQuotaExceeded {
			t.Fatalf("%s past the quota: %v, the text got %v", name, err, wantDenied)
		}
		if got, want := ep.Stats(), byText.Stats(); got != want {
			t.Fatalf("%s: stats %+v, SelectCtx of the text leaves %+v", name, got, want)
		}
	}

	// One shape, one plan — whichever way its texts come in: compiled on
	// the first, found in the cache by the 999 after it and by SelectCtx.
	ep := NewLocal(bigKB(40), 7)
	for i := 0; i < 1000; i++ {
		text := fmt.Sprintf("SELECT ?y WHERE { <http://x/s%04d> <http://x/p> ?y } LIMIT %d", i%40, 1+i%3)
		pq, err := ep.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ways()[i%3](pq)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("%s: %v, %v", text, res, err)
		}
	}
	if n := ep.engine.CachedPlans(); n != 1 {
		t.Fatalf("%d plans cached for 1,000 prepared texts of one shape, want 1", n)
	}
	if _, err := ep.SelectCtx(ctx, "SELECT ?y WHERE { <http://x/s0007> <http://x/p> ?y } LIMIT 2"); err != nil {
		t.Fatal(err)
	}
	if n := ep.engine.CachedPlans(); n != 1 {
		t.Fatalf("%d plans cached once SelectCtx ran the shape too, want the same 1", n)
	}

	// A text handle takes no arguments, and is of one form.
	pq, err := ep.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.SelectCtx(ctx, sparql.IntArg(1)); err == nil {
		t.Fatal("a text handle took an argument")
	}
	if _, err := pq.AskCtx(ctx); err != errNeedAsk {
		t.Fatalf("AskCtx on a SELECT text: %v", err)
	}
	ask, err := ep.Prepare("ASK { <http://x/s0001> <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := ask.AskCtx(ctx); err != nil || !ok {
		t.Fatalf("ASK text handle: %v, %v", ok, err)
	}
	if _, err := ask.Stream(ctx); err != errNeedSelect {
		t.Fatalf("Stream on an ASK text: %v", err)
	}
}

// TestServerStreamTextErrors: a text the stream path cannot run is the
// 400 the document path answers for it, message included — both
// prepare it the same way.
func TestServerStreamTextErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	for _, text := range []string{
		"SELEC bad",
		"SELECT ?x WHERE { ?x <http://x/p> }",
		"SELECT ?x WHERE { ?x <http://x/p> ?y } LIMIT $n",
		"SELECT ?x",
		"SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY NOSUCH(?x)",
	} {
		var answers [2]string
		for i, form := range []url.Values{{"query": {text}}, {"query": {text}, "stream": {"1"}}} {
			resp, err := http.PostForm(srv.URL, form)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%q, %v: status %d, want 400: %s", text, form["stream"], resp.StatusCode, body)
			}
			answers[i] = string(body)
		}
		if answers[0] != answers[1] {
			t.Errorf("%q: the stream path answers %q, the document path %q", text, answers[1], answers[0])
		}
	}
}
