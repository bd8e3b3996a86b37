package endpoint

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// bigKB builds a KB with one large predicate, for streams worth
// aborting early.
func bigKB(n int) *kb.KB {
	k := kb.New("big")
	for i := 0; i < n; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%04d", i), "http://x/p", fmt.Sprintf("http://x/o%04d", i))
	}
	return k
}

const tmplAll = "SELECT ?x ?y WHERE { ?x $r ?y }"

// drainRows drains a Rows stream, failing the test on error.
func drainRows(t *testing.T, rows Rows, err error) *sparql.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	res := &sparql.Result{Vars: rows.Vars()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	res.Truncated = rows.Truncated()
	return res
}

// TestLocalStreamMatchesSelect: a drained prepared stream equals the
// prepared Select result byte for byte, and counts the same stats.
func TestLocalStreamMatchesSelect(t *testing.T) {
	ep := NewLocal(bigKB(100), 1)
	pq, err := ep.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	got := drainRows(t, rows, err)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("streamed %d rows, drained %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
	st := ep.Stats()
	if st.Queries != 2 || st.Rows != 200 {
		t.Fatalf("stats = %+v, want 2 queries / 200 rows", st)
	}
}

// TestLocalStreamEarlyCloseStats: closing a stream early charges only
// the rows actually pulled — the whole point of streaming the
// LIMIT-heavy probes.
func TestLocalStreamEarlyCloseStats(t *testing.T) {
	ep := NewLocal(bigKB(500), 1)
	pq, err := ep.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if !rows.Next() {
			t.Fatalf("stream ended at %d", i)
		}
	}
	rows.Close()
	rows.Close() // idempotent
	if st := ep.Stats(); st.Rows != 7 || st.Queries != 1 {
		t.Fatalf("stats = %+v, want 1 query / 7 rows", st)
	}
}

// TestLocalStreamRowCap: the quota's MaxRows caps a stream like a
// drained Select, flagging truncation and counting it once.
func TestLocalStreamRowCap(t *testing.T) {
	ep := NewLocalRestricted(bigKB(50), 1, Quota{MaxRows: 5})
	pq, err := ep.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	got := drainRows(t, rows, err)
	if len(got.Rows) != 5 || !got.Truncated {
		t.Fatalf("capped stream: %d rows, truncated=%v", len(got.Rows), got.Truncated)
	}
	if st := ep.Stats(); st.Truncations != 1 || st.Rows != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLocalStreamExactCapNotTruncated: a stream whose result has
// exactly MaxRows rows is not truncated — matching the drain path,
// which only truncates past the cap.
func TestLocalStreamExactCapNotTruncated(t *testing.T) {
	ep := NewLocalRestricted(bigKB(5), 1, Quota{MaxRows: 5})
	pq, err := ep.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	got := drainRows(t, rows, err)
	if got.Truncated != want.Truncated || got.Truncated {
		t.Fatalf("exact-cap stream truncated=%v, drain truncated=%v, want both false",
			got.Truncated, want.Truncated)
	}
	if st := ep.Stats(); st.Truncations != 0 {
		t.Fatalf("stats = %+v, want no truncations", st)
	}
}

// TestTextPreparedStreamFallback: endpoints without a native stream
// (the HTTP client path) drain then iterate, byte-identically.
func TestTextPreparedStreamFallback(t *testing.T) {
	inner := NewLocal(testKB(), 1)
	pq, err := NewTextPrepared(inner, tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	got := drainRows(t, rows, err)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("fallback streamed %d rows, want %d", len(got.Rows), len(want.Rows))
	}
}

// TestCachingStreamPrefix: an early-closed stream stores its drained
// prefix; an identical stream replays it without touching the inner
// endpoint, and pulling past the prefix transparently re-probes and
// upgrades the entry to the complete result.
func TestCachingStreamPrefix(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(bigKB(40), 1)}
	c := NewCaching(inner, 0)
	pq, err := c.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	full, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	if inner.selects.Load() != 1 {
		t.Fatalf("inner selects = %d", inner.selects.Load())
	}
	c.Purge()

	pull := func(n int) [][]rdf.Term {
		rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out [][]rdf.Term
		for len(out) < n && rows.Next() {
			out = append(out, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// miss: stream 10 rows, close → prefix of 10 stored
	first := pull(10)
	if n := inner.selects.Load(); n != 2 {
		t.Fatalf("after prefix stream: inner selects = %d, want 2", n)
	}
	// replay within the prefix: inner untouched
	second := pull(10)
	if n := inner.selects.Load(); n != 2 {
		t.Fatalf("prefix replay touched inner: selects = %d, want 2", n)
	}
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("replayed row %d differs", i)
			}
		}
	}
	// pulling past the prefix re-probes once and continues correctly
	third := pull(25)
	if n := inner.selects.Load(); n != 3 {
		t.Fatalf("prefix extension: inner selects = %d, want 3", n)
	}
	if len(third) != 25 {
		t.Fatalf("extended stream returned %d rows", len(third))
	}
	for i := range third {
		for j := range third[i] {
			if third[i][j] != full.Rows[i][j] {
				t.Fatalf("extended row %d differs from full drain", i)
			}
		}
	}
	// a full drain upgrades the entry to complete; the text Select path
	// keys differently, but an identical stream now replays completely
	_ = pull(1 << 20)
	if n := inner.selects.Load(); n != 4 {
		t.Fatalf("full stream drain: inner selects = %d, want 4", n)
	}
	_ = pull(1 << 20)
	if n := inner.selects.Load(); n != 4 {
		t.Fatalf("complete replay touched inner: selects = %d, want 4", n)
	}
}

// TestCachingStreamOwnsItsArgs: the arguments of a stream are the
// caller's again once Stream has returned (PreparedQuery), so a shared
// stream that re-opens its inner stream past a stored prefix must do so
// with the arguments it was started with, whatever the caller has since
// written into its slice. Reading the caller's slice, the stream below
// answered a's stored row followed by b's: a0 b1 b2 b3 b4, stored under
// a's key by its last consumer.
func TestCachingStreamOwnsItsArgs(t *testing.T) {
	k := kb.New("args")
	for _, s := range []string{"a", "b"} {
		for i := range 5 {
			k.AddIRIs("http://x/"+s, "http://x/p", fmt.Sprintf("http://x/%s%d", s, i))
		}
	}
	pq, err := NewCaching(NewLocal(k, 1), 0).Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	read := func(rows Rows, n int) string {
		t.Helper()
		defer rows.Close()
		var out []string
		for len(out) < n && rows.Next() {
			out = append(out, strings.TrimPrefix(rows.Row()[0].Value, "http://x/"))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, " ")
	}
	rows, err := pq.Stream(ctx, sparql.IRIArg("http://x/a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := read(rows, 1); got != "a0" {
		t.Fatalf("prefix %q, want a0", got)
	}
	args := []sparql.Arg{sparql.IRIArg("http://x/a")}
	rows, err = pq.Stream(ctx, args...)
	if err != nil {
		t.Fatal(err)
	}
	args[0] = sparql.IRIArg("http://x/b")
	const want = "a0 a1 a2 a3 a4"
	if got := read(rows, 10); got != want {
		t.Errorf("stream over a stored prefix, its args slice then overwritten: %s, want %s", got, want)
	}
	rows, err = pq.Stream(ctx, sparql.IRIArg("http://x/a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := read(rows, 10); got != want {
		t.Errorf("stored under a's key: %s, want %s", got, want)
	}
}

// argGate is an endpoint whose prepared handles read their arguments
// only once gate is closed.
type argGate struct {
	*Local
	gate chan struct{}
}

func (e argGate) Prepare(template string, params ...string) (PreparedQuery, error) {
	pq, err := e.Local.Prepare(template, params...)
	return argGateHandle{pq, e.gate}, err
}

type argGateHandle struct {
	PreparedQuery
	gate chan struct{}
}

func (h argGateHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	<-h.gate
	return h.PreparedQuery.SelectCtx(ctx, args...)
}

// TestCachingFlightOwnsItsArgs: a leader whose context ends leaves its
// flight running, so the flight must read a copy of the leader's
// arguments — the caller may write into its slice once SelectCtx has
// returned, and the flight stores what it answers under the key of the
// arguments it started with.
func TestCachingFlightOwnsItsArgs(t *testing.T) {
	k := kb.New("args")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/a0")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/b0")
	gate := make(chan struct{})
	c := NewCaching(argGate{NewLocal(k, 1), gate}, 0)
	pq, err := c.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	args := []sparql.Arg{sparql.IRIArg("http://x/a")}
	left := make(chan error)
	go func() {
		_, err := pq.SelectCtx(ctx, args...)
		left <- err
	}()
	for c.drains.InFlight() == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-left; err == nil {
		t.Fatal("a cancelled leader answered")
	}
	args[0] = sparql.IRIArg("http://x/b")
	close(gate)
	for c.drains.InFlight() > 0 {
		runtime.Gosched()
	}
	res, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/a"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[<http://x/a0>]]" {
		t.Errorf("a's objects, after the flight a's cancelled leader left: %s", got)
	}
}

// TestCachingStreamCompleteServesSelect: a stream drained to exhaustion
// stores a complete result that the drain path then serves from cache.
func TestCachingStreamCompleteServesSelect(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(bigKB(10), 1)}
	c := NewCaching(inner, 0)
	pq, err := c.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	streamed := drainRows(t, rows, err)
	if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p")); err != nil {
		t.Fatal(err)
	}
	if n := inner.selects.Load(); n != 1 {
		t.Fatalf("drain after complete stream re-probed: selects = %d, want 1", n)
	}
	if len(streamed.Rows) != 10 {
		t.Fatalf("streamed %d rows", len(streamed.Rows))
	}
	// partial prefixes must never serve the drain path
	c.Purge()
	rows, err = pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	rows.Close()
	if _, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p")); err != nil {
		t.Fatal(err)
	}
	if n := inner.selects.Load(); n != 3 {
		t.Fatalf("drain served a partial prefix: selects = %d, want 3", n)
	}
}

// TestCoalescingStreamBroadcast: concurrent identical prepared streams
// share one inner probe; every waiter — leader and joiners alike —
// replays the identical full row sequence. Run with -race.
func TestCoalescingStreamBroadcast(t *testing.T) {
	gate := make(chan struct{})
	inner := &gatedEndpoint{Local: NewLocal(bigKB(60), 1), gate: gate}
	co := NewCoalescing(inner)
	pq, err := co.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 6
	results := make([][][]rdf.Term, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
			if err != nil {
				errs[i] = err
				return
			}
			defer rows.Close()
			for rows.Next() {
				results[i] = append(results[i], rows.Row())
			}
			errs[i] = rows.Err()
		}(i)
	}
	// Open the gate once every waiter is on the one stream — the opener
	// held at the gate, the rest joined to it — not merely started.
	for inner.selects.Load() != 1 || co.Coalesced() != waiters-1 {
		runtime.Gosched()
	}
	close(gate) // release the single gated inner drain
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if len(results[i]) != 60 {
			t.Fatalf("waiter %d got %d rows, want 60", i, len(results[i]))
		}
		for r := range results[i] {
			for c := range results[i][r] {
				if results[i][r][c] != results[0][r][c] {
					t.Fatalf("waiter %d row %d differs from waiter 0", i, r)
				}
			}
		}
	}
	if n := inner.selects.Load(); n != 1 {
		t.Fatalf("inner selects = %d, want 1 (coalesced)", n)
	}
	if co.Coalesced() == 0 {
		t.Fatal("no calls were recorded as coalesced")
	}
	// once the last consumer left, the next stream probes afresh
	rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	res := drainRows(t, rows, err)
	if len(res.Rows) != 60 {
		t.Fatalf("fresh stream got %d rows", len(res.Rows))
	}
	if n := inner.selects.Load(); n != 2 {
		t.Fatalf("inner selects = %d, want 2 (no memory)", n)
	}
}

// TestCoalescingStreamErrorNotSticky: when opening the shared inner
// stream fails while a joiner is attached, the errored stream must
// leave the coalescing table immediately — later identical calls
// re-probe the endpoint instead of coalescing onto the stale error.
func TestCoalescingStreamErrorNotSticky(t *testing.T) {
	gate := make(chan struct{})
	local := NewLocalRestricted(bigKB(8), 1, Quota{MaxQueries: 1})
	inner := &gatedEndpoint{Local: local, gate: gate}
	co := NewCoalescing(inner)
	pq, err := co.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	// exhaust the query budget so the opener's drain will be denied
	go func() { gate <- struct{}{} }()
	if _, err := inner.SelectCtx(context.Background(), `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`); err != nil {
		t.Fatal(err)
	}

	openerErr := make(chan error, 1)
	go func() {
		_, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
		openerErr <- err
	}()
	// wait until the opener is blocked on the gate inside the drain
	for inner.selects.Load() != 2 {
	}
	// a joiner attaches to the in-flight stream and just sits on it
	joiner, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // release the opener into the quota denial
	if err := <-openerErr; err == nil {
		t.Fatal("opener should have failed on the exhausted quota")
	}
	if joiner.Next() {
		t.Fatal("joiner got rows from a failed open")
	}
	if joiner.Err() == nil {
		t.Fatal("joiner should observe the open error")
	}

	// with the budget lifted, the next identical call must re-probe —
	// not coalesce onto the errored stream the joiner still holds
	local.SetQuota(Quota{})
	done := make(chan *sparql.Result, 1)
	go func() {
		rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		res := &sparql.Result{}
		for rows.Next() {
			res.Rows = append(res.Rows, rows.Row())
		}
		rows.Close()
		done <- res
	}()
	gate <- struct{}{} // the fresh probe passes the gate
	res := <-done
	if res == nil || len(res.Rows) != 8 {
		t.Fatalf("fresh stream after lifting quota: %v", res)
	}
	joiner.Close()
}

// TestCoalescingStreamStaggeredJoin: a joiner that attaches after the
// leader pulled part of the stream replays the identical prefix from
// the shared buffer. Run with -race.
func TestCoalescingStreamStaggeredJoin(t *testing.T) {
	inner := NewLocal(bigKB(30), 1)
	co := NewCoalescing(inner)
	pq, err := co.Prepare(tmplAll, "r")
	if err != nil {
		t.Fatal(err)
	}
	leader, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	var lead [][]rdf.Term
	for i := 0; i < 12; i++ {
		if !leader.Next() {
			t.Fatalf("leader ended at %d", i)
		}
		lead = append(lead, leader.Row())
	}
	joiner, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if !joiner.Next() {
			t.Fatalf("joiner ended at %d", i)
		}
		for c := range joiner.Row() {
			if joiner.Row()[c] != lead[i][c] {
				t.Fatalf("joiner row %d differs from leader", i)
			}
		}
	}
	leader.Close()
	// the joiner outlives the leader and can still advance the stream
	n := 12
	for joiner.Next() {
		n++
	}
	if err := joiner.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Fatalf("joiner drained %d rows, want 30", n)
	}
	joiner.Close()
	if st := inner.Stats(); st.Queries != 1 {
		t.Fatalf("inner queries = %d, want 1", st.Queries)
	}
}
