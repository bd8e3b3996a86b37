package endpoint

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/sparql"
)

// gatedEndpoint wraps a Local, counting the calls that reach it and
// optionally holding them on a gate so a test can pile up concurrent
// callers deterministically.
type gatedEndpoint struct {
	*Local
	selects atomic.Int64
	asks    atomic.Int64
	gate    chan struct{} // nil = open
}

func (g *gatedEndpoint) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	g.selects.Add(1)
	if g.gate != nil {
		<-g.gate
	}
	return g.Local.SelectCtx(ctx, query)
}

func (g *gatedEndpoint) AskCtx(ctx context.Context, query string) (bool, error) {
	g.asks.Add(1)
	if g.gate != nil {
		<-g.gate
	}
	return g.Local.AskCtx(ctx, query)
}

// Prepare routes prepared executions through the gated text path (not
// the embedded Local's fast path) so tests count and block them like
// any other probe.
func (g *gatedEndpoint) Prepare(template string, params ...string) (PreparedQuery, error) {
	return NewTextPrepared(g, template, params...)
}

const (
	selP  = `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`
	selPX = `SELECT ?y WHERE { <http://x/a> <http://x/p> ?y }`
	askAB = `ASK { <http://x/a> <http://x/p> <http://x/b> }`
)

func TestCachingMemoizesSelectAndAsk(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 0)
	if c.Name() != "test" {
		t.Fatalf("name = %q", c.Name())
	}

	first, err := c.SelectCtx(context.Background(), selP)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SelectCtx(context.Background(), selP)
	if err != nil {
		t.Fatal(err)
	}
	if inner.selects.Load() != 1 {
		t.Fatalf("inner selects = %d, want 1", inner.selects.Load())
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatal("cached result differs")
	}

	for i := 0; i < 3; i++ {
		ok, err := c.AskCtx(context.Background(), askAB)
		if err != nil || !ok {
			t.Fatalf("ask = %v, %v", ok, err)
		}
	}
	if inner.asks.Load() != 1 {
		t.Fatalf("inner asks = %d, want 1", inner.asks.Load())
	}

	cs := c.CacheStats()
	if cs.Hits != 3 || cs.Misses != 2 {
		t.Fatalf("cache stats = %+v", cs)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// the delegated endpoint stats still see only the real traffic
	if c.Stats().Queries != 2 {
		t.Fatalf("delegated stats = %+v", c.Stats())
	}

	c.Purge()
	if c.Len() != 0 {
		t.Fatal("Purge left entries")
	}
	if _, err := c.SelectCtx(context.Background(), selP); err != nil {
		t.Fatal(err)
	}
	if inner.selects.Load() != 2 {
		t.Fatal("purged entry not recomputed")
	}
}

func TestCachingLRUEviction(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 2)

	queries := []string{selP, selPX, askAB}
	if _, err := c.SelectCtx(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SelectCtx(context.Background(), queries[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AskCtx(context.Background(), queries[2]); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want LRU bound 2", c.Len())
	}
	if c.CacheStats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.CacheStats().Evictions)
	}
	// queries[0] was the least recently used → re-fetched
	before := inner.selects.Load()
	if _, err := c.SelectCtx(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
	if inner.selects.Load() != before+1 {
		t.Fatal("evicted entry served from cache")
	}
}

func TestCachingDoesNotCacheErrors(t *testing.T) {
	local := NewLocalRestricted(testKB(), 1, Quota{MaxQueries: 1})
	c := NewCaching(local, 0)
	if _, err := c.SelectCtx(context.Background(), selP); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SelectCtx(context.Background(), selPX); err == nil {
		t.Fatal("want quota error")
	}
	// the failed query must not be memoized: lift the quota and retry
	local.SetQuota(Quota{})
	if _, err := c.SelectCtx(context.Background(), selPX); err != nil {
		t.Fatalf("error was cached: %v", err)
	}
}

func TestCachingConcurrent(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				q := fmt.Sprintf(`SELECT ?y WHERE { <http://x/a> <http://x/p%d> ?y }`, j%12)
				if _, err := c.SelectCtx(context.Background(), q); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cs := c.CacheStats()
	if n := int64(cs.Hits+cs.Misses) + c.Coalesced(); n != 8*40 {
		t.Fatalf("stats lost calls: %+v + %d coalesced = %d, want %d", cs, c.Coalesced(), n, 8*40)
	}
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds bound", c.Len())
	}
}

func TestCoalescingSharesInFlightQueries(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	c := NewCoalescing(inner)
	if c.Name() != "test" {
		t.Fatalf("name = %q", c.Name())
	}

	const n = 10
	var wg sync.WaitGroup
	rows := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.SelectCtx(context.Background(), selP)
			if err != nil {
				t.Error(err)
				return
			}
			rows[i] = len(res.Rows)
		}(i)
	}
	// wait until the leader holds the gate and every follower has
	// joined its flight, then release
	for inner.selects.Load() == 0 || c.drains.Waiting(preparedKey('S', c.inner.Name(), selP, nil, nil)) < n-1 {
		time.Sleep(time.Millisecond)
	}
	close(inner.gate)
	wg.Wait()

	if got := inner.selects.Load(); got != 1 {
		t.Fatalf("inner selects = %d, want 1 (coalesced)", got)
	}
	if c.Coalesced() != n-1 {
		t.Fatalf("coalesced = %d, want %d", c.Coalesced(), n-1)
	}
	for i, r := range rows {
		if r != 3 {
			t.Fatalf("caller %d rows = %d", i, r)
		}
	}
	// after completion the flight is forgotten: next call probes again
	if _, err := c.SelectCtx(context.Background(), selP); err != nil {
		t.Fatal(err)
	}
	if inner.selects.Load() != 2 {
		t.Fatal("coalescer memoized a completed query")
	}
}

// One caller's cancellation must not poison the coalesced probe: the
// shared inner call is detached from individual caller contexts.
func TestCoalescingLeaderCancellationDoesNotPoisonWaiters(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	c := NewCoalescing(inner)

	ctx, cancel := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := c.SelectCtx(ctx, selP)
		initiatorErr <- err
	}()
	for inner.selects.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	followerRows := make(chan int, 1)
	followerErr := make(chan error, 1)
	go func() {
		res, err := c.SelectCtx(context.Background(), selP)
		if err != nil {
			followerErr <- err
			return
		}
		followerRows <- len(res.Rows)
	}()
	for c.drains.Waiting(preparedKey('S', c.inner.Name(), selP, nil, nil)) < 1 {
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-initiatorErr; err != context.Canceled {
		t.Fatalf("canceled initiator err = %v", err)
	}
	close(inner.gate)
	select {
	case rows := <-followerRows:
		if rows != 3 {
			t.Fatalf("follower rows = %d", rows)
		}
	case err := <-followerErr:
		t.Fatalf("follower poisoned by initiator's cancellation: %v", err)
	case <-time.After(time.Second):
		t.Fatal("follower hung")
	}
	if inner.selects.Load() != 1 {
		t.Fatalf("inner selects = %d, want 1", inner.selects.Load())
	}
}

func TestCoalescingAsk(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCoalescing(inner)
	ok, err := c.AskCtx(context.Background(), askAB)
	if err != nil || !ok {
		t.Fatalf("ask = %v, %v", ok, err)
	}
	if c.Stats().Queries != 1 {
		t.Fatalf("delegated stats = %+v", c.Stats())
	}
}

func TestStackedDecoratorsExactlyOnceTraffic(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	ep := NewCoalescing(NewCaching(inner, 0))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := ep.SelectCtx(context.Background(), selP); err != nil {
					t.Error(err)
					return
				}
				if _, err := ep.SelectCtx(context.Background(), selPX); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// 2 distinct queries → exactly 2 probes: a call either finds the
	// result stored, joins the one flight, or leads it and finds the
	// result an earlier flight stored
	if got := inner.selects.Load(); got != 2 {
		t.Fatalf("inner selects = %d, want 2", got)
	}
}

// TestCachingCoalescesConcurrentCalls: on a bare Caching, concurrent
// identical SelectCtx, AskCtx and Stream calls reach the inner endpoint
// once — the leader's — while the rest join it and answer alike; every
// call counts as a hit, a miss or coalesced. Run with -race.
func TestCachingCoalescesConcurrentCalls(t *testing.T) {
	ctx := context.Background()
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1)}
	c := NewCaching(inner, 0)
	pq, err := c.Prepare(selP)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	waiting := func(form byte, text string) int {
		return c.drains.Waiting(preparedKey(form, inner.Name(), text, nil, nil))
	}
	for _, tc := range []struct {
		name   string
		joined func() bool // every follower is on the leader's execution
		call   func() (string, error)
	}{
		{"SelectCtx", func() bool { return waiting('S', selP) == n-1 }, func() (string, error) {
			res, err := c.SelectCtx(ctx, selP)
			if err != nil {
				return "", err
			}
			return renderRes(res), nil
		}},
		{"AskCtx", func() bool { return waiting('A', askAB) == n-1 }, func() (string, error) {
			ok, err := c.AskCtx(ctx, askAB)
			return fmt.Sprint(ok), err
		}},
		{"Stream", func() bool { return c.Coalesced() == 3*(n-1) }, func() (string, error) {
			rows, err := pq.Stream(ctx)
			if err != nil {
				return "", err
			}
			defer rows.Close()
			res := &sparql.Result{Vars: rows.Vars()}
			for rows.Next() {
				res.Rows = append(res.Rows, rows.Row())
			}
			return renderRes(res), rows.Err()
		}},
	} {
		c.Purge() // the stream shares the SELECT's key
		probes := func() int64 { return inner.selects.Load() + inner.asks.Load() }
		before := probes()
		inner.gate = make(chan struct{})
		out := make([]string, n)
		errs := make(chan error, n)
		for i := range out {
			go func() {
				var err error
				out[i], err = tc.call()
				errs <- err
			}()
		}
		for probes() == before || !tc.joined() {
			time.Sleep(time.Millisecond)
		}
		close(inner.gate)
		for range out {
			if err := <-errs; err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := probes() - before; got != 1 {
			t.Fatalf("%s: %d calls reached the inner endpoint, want 1", tc.name, got)
		}
		for i := range out {
			if out[i] != out[0] || out[i] == "" {
				t.Fatalf("%s: caller %d answered %q, caller 0 %q", tc.name, i, out[i], out[0])
			}
		}
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 3 || c.Coalesced() != 3*(n-1) {
		t.Fatalf("stats %+v, %d coalesced; want 3 misses and %d coalesced", st, c.Coalesced(), 3*(n-1))
	}
}

// TestCoalescingOverCachingIsCaching: a Caching already coalesces, so
// NewCoalescing returns it as it is; over anything else it builds a memo
// that keeps nothing once its callers leave.
func TestCoalescingOverCachingIsCaching(t *testing.T) {
	local := NewLocal(testKB(), 1)
	c := NewCaching(local, 5)
	if co := NewCoalescing(c); co != c {
		t.Fatalf("NewCoalescing(NewCaching(x, 5)) = %p, want its argument %p", co, c)
	}
	co := NewCoalescing(local)
	if co == NewCoalescing(local) {
		t.Fatal("two NewCoalescing over one Local share a memo")
	}
	for i := 0; i < 2; i++ {
		if _, err := co.SelectCtx(context.Background(), selP); err != nil {
			t.Fatal(err)
		}
	}
	if co.Len() != 0 || local.Stats().Queries != 2 {
		t.Fatalf("Coalescing(Local) kept %d results; %d queries reached the KB, want 2", co.Len(), local.Stats().Queries)
	}
}

func TestLocalConcurrentIdenticalResults(t *testing.T) {
	ep := NewLocal(testKB(), 3)
	q := `SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND()`
	want, err := NewLocal(testKB(), 3).SelectCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				got, err := ep.SelectCtx(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				for r := range want.Rows {
					if got.Rows[r][0] != want.Rows[r][0] {
						t.Errorf("row %d diverged under concurrency", r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if ep.Stats().Queries != 8*25 {
		t.Fatalf("stats lost queries: %+v", ep.Stats())
	}
}

// cancelOps is every way a call reaches a KB through the query surface;
// sel and ask are handles prepared on ep. Each op gets a context that
// is already cancelled.
var cancelOps = []struct {
	name string
	run  func(ctx context.Context, ep Endpoint, sel, ask PreparedQuery) (Rows, error)
}{
	{"text SelectCtx", func(ctx context.Context, ep Endpoint, _, _ PreparedQuery) (Rows, error) {
		_, err := ep.SelectCtx(ctx, selP)
		return nil, err
	}},
	{"text AskCtx", func(ctx context.Context, ep Endpoint, _, _ PreparedQuery) (Rows, error) {
		_, err := ep.AskCtx(ctx, askAB)
		return nil, err
	}},
	{"prepared SelectCtx", func(ctx context.Context, _ Endpoint, sel, _ PreparedQuery) (Rows, error) {
		_, err := sel.SelectCtx(ctx, sparql.IRIArg("http://x/a"))
		return nil, err
	}},
	{"prepared AskCtx", func(ctx context.Context, _ Endpoint, _, ask PreparedQuery) (Rows, error) {
		_, err := ask.AskCtx(ctx, sparql.IRIArg("http://x/a"))
		return nil, err
	}},
	{"prepared Stream", func(ctx context.Context, _ Endpoint, sel, _ PreparedQuery) (Rows, error) {
		return sel.Stream(ctx, sparql.IRIArg("http://x/a"))
	}},
	{"prepared SelectBatch", func(ctx context.Context, _ Endpoint, sel, _ PreparedQuery) (Rows, error) {
		_, err := selectGroup(ctx, sel, [][]sparql.Arg{{sparql.IRIArg("http://x/a")}, {sparql.IRIArg("http://x/b")}, {sparql.IRIArg("http://x/a")}})
		return nil, err
	}},
	{"prepared StreamBatch", func(ctx context.Context, _ Endpoint, sel, _ PreparedQuery) (Rows, error) {
		sets, err := StreamBatch(ctx, sel, [][]sparql.Arg{{sparql.IRIArg("http://x/a")}, {sparql.IRIArg("http://x/b")}})
		if err != nil {
			return nil, err
		}
		return sets, nil
	}},
}

// stacks is every stack shape of this package over a Local, whose
// statistics are what reached the KB; a stack's memo, if it has one, is
// returned too. Coalescing(Caching(Local)) is the Caching(Local) object
// itself — the composition bench/ builds — and Coalescing(Local) the memo
// that keeps nothing.
var stacks = []struct {
	name  string
	build func(t *testing.T, l *Local) (Endpoint, *Caching)
}{
	{"Local", func(_ *testing.T, l *Local) (Endpoint, *Caching) { return l, nil }},
	{"Caching(Local)", func(_ *testing.T, l *Local) (Endpoint, *Caching) {
		c := NewCaching(l, 0)
		return c, c
	}},
	{"Coalescing(Caching(Local))", func(_ *testing.T, l *Local) (Endpoint, *Caching) {
		c := NewCoalescing(NewCaching(l, 0))
		return c, c
	}},
	{"Coalescing(Local)", func(_ *testing.T, l *Local) (Endpoint, *Caching) {
		c := NewCoalescing(l)
		return c, c
	}},
	{"Admission(Local)", func(_ *testing.T, l *Local) (Endpoint, *Caching) {
		return NewAdmission(l, Limits{MaxInFlight: 1}), nil
	}},
	{"Client", func(t *testing.T, l *Local) (Endpoint, *Caching) {
		srv := httptest.NewServer(NewServer(l))
		t.Cleanup(srv.Close)
		return NewClient("test", srv.URL, srv.Client()), nil
	}},
}

// TestCancellationContract states cancellation once for the whole query
// surface, over every stack shape of this package (shard.Group and
// cluster.Group run the same table in their packages): a call under a
// cancelled context returns promptly with context.Canceled, hands back
// no Rows to close, never reaches the KB, and leaves no coalesced
// execution in flight behind it.
func TestCancellationContract(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, st := range stacks {
		for _, op := range cancelOps {
			t.Run(st.name+"/"+op.name, func(t *testing.T) {
				local := NewLocal(testKB(), 1)
				ep, memo := st.build(t, local)
				sel, err := ep.Prepare(`SELECT ?y WHERE { $x <http://x/p> ?y }`, "x")
				if err != nil {
					t.Fatal(err)
				}
				ask, err := ep.Prepare(`ASK { $x <http://x/p> ?y }`, "x")
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				rows, err := op.run(ctx, ep, sel, ask)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
				if rows != nil {
					rows.Close()
					t.Error("a failed call returned Rows")
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("took %v to notice a context cancelled beforehand", d)
				}
				if q := local.Stats().Queries; q != 0 {
					t.Errorf("%d queries reached the KB", q)
				}
				if memo != nil {
					memo.mu.Lock()
					streams := len(memo.streams)
					memo.mu.Unlock()
					if n := memo.drains.InFlight() + streams; n != 0 {
						t.Errorf("%d coalesced executions left in flight", n)
					}
				}
			})
		}
	}
}

// textAnswer runs a text on ep through SelectCtx or AskCtx, by its form,
// or prepared as the template without parameters it is, and renders the
// answer.
func textAnswer(ctx context.Context, ep Endpoint, text string, prepared bool) (string, error) {
	var pq PreparedQuery
	var err error
	if prepared {
		if pq, err = ep.Prepare(text); err != nil {
			return "", err
		}
	}
	if sparql.FormOf(text) == sparql.AskForm {
		var ok bool
		if prepared {
			ok, err = pq.AskCtx(ctx)
		} else {
			ok, err = ep.AskCtx(ctx, text)
		}
		return fmt.Sprint(ok), err
	}
	var res *sparql.Result
	if prepared {
		res, err = pq.SelectCtx(ctx)
	} else {
		res, err = ep.SelectCtx(ctx, text)
	}
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%v\n%struncated=%v", res.Vars, renderRes(res), res.Truncated), nil
}

// TestTextPathContract: over every stack of this package a query text is
// the template without parameters — SelectCtx(text) and Prepare(text)
// then SelectCtx() answer what a bare Local answers, byte for byte, at
// the same cost to the KB behind the stack. Routed, star, a RAND()
// sample, and an ASK answering true and one answering false.
func TestTextPathContract(t *testing.T) {
	ctx := context.Background()
	texts := []struct{ text, want string }{
		{selPX, "[y]\n<http://x/b>\t\n<http://x/c>\t\ntruncated=false"},
		{selP, ""},
		{`SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 2`, ""},
		{askAB, "true"},
		{`ASK { <http://x/c> <http://x/p> ?y }`, "false"},
	}
	for _, st := range stacks {
		for _, tc := range texts {
			ref := NewLocal(testKB(), 1)
			want, err := textAnswer(ctx, ref, tc.text, false)
			if err != nil || tc.want != "" && want != tc.want {
				t.Fatalf("%q on a Local: %q, %v; want %q", tc.text, want, err, tc.want)
			}
			for _, prepared := range []bool{false, true} {
				l := NewLocal(testKB(), 1)
				ep, _ := st.build(t, l)
				got, err := textAnswer(ctx, ep, tc.text, prepared)
				if err != nil || got != want {
					t.Errorf("%s, %q (prepared %v): %q, %v; a Local answers %q", st.name, tc.text, prepared, got, err, want)
				}
				if l.Stats() != ref.Stats() {
					t.Errorf("%s, %q (prepared %v): costs %+v, on a Local %+v", st.name, tc.text, prepared, l.Stats(), ref.Stats())
				}
			}
		}
	}
}

// TestTextParsedBeforeTheWire: Client's own SelectCtx is the one text
// transport, sending the caller's bytes in whatever dialect they are; a
// stack over a Client runs a text as a template, so a text the parser
// refuses fails at the caller with the parser's error and sends nothing.
func TestTextParsedBeforeTheWire(t *testing.T) {
	const optional = `SELECT ?x ?z WHERE { ?x <http://x/p> ?y OPTIONAL { ?y <http://x/p> ?z } }`
	_, parseErr := sparql.Parse(optional)
	if parseErr == nil {
		t.Fatal("the fixture parses: pick a text the parser refuses")
	}
	var mu sync.Mutex
	var sent []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			t.Error(err)
		}
		mu.Lock()
		sent = append(sent, r.PostForm.Get("query"))
		mu.Unlock()
		body, _ := MarshalSelect(&sparql.Result{Vars: []string{"x", "z"}})
		w.Header().Set("Content-Type", ResultsContentType)
		w.Write(body)
	}))
	defer srv.Close()
	client := NewClient("test", srv.URL, srv.Client())
	ctx := context.Background()

	if _, err := NewCaching(client, 0).SelectCtx(ctx, optional); err == nil || err.Error() != parseErr.Error() {
		t.Fatalf("through Caching(Client): %v, want the parser's %v", err, parseErr)
	}
	mu.Lock()
	n := len(sent)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("a text the parser refuses reached the server %d times", n)
	}
	if _, err := client.SelectCtx(ctx, optional); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sent) != 1 || sent[0] != optional {
		t.Fatalf("Client.SelectCtx sent %q, want the caller's bytes %q", sent, optional)
	}
}
