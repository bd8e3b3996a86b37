package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// batchStub is a replica whose prepared handle takes groups of streams
// natively: StreamBatch waits for release (when set), takes perTuple per
// tuple, fails with err when that is set, and otherwise answers one
// empty set per tuple. It records what arrived and how long the open
// took, measured inside the call.
type batchStub struct {
	name     string
	perTuple time.Duration
	err      error
	release  chan struct{}

	groups, tuples atomic.Int64
	elapsed        atomic.Int64 // ns, of the last group
}

func (s *batchStub) Name() string { return s.name }
func (s *batchStub) SelectCtx(context.Context, string) (*sparql.Result, error) {
	return nil, errors.New("batchStub: text query")
}
func (s *batchStub) AskCtx(context.Context, string) (bool, error) { return true, nil }
func (s *batchStub) Prepare(string, ...string) (endpoint.PreparedQuery, error) {
	return batchStubHandle{s}, nil
}

type batchStubHandle struct{ s *batchStub }

func (h batchStubHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	res, err := h.group(ctx, [][]sparql.Arg{args})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
func (h batchStubHandle) AskCtx(context.Context, ...sparql.Arg) (bool, error) { return true, nil }
func (h batchStubHandle) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	res, err := h.SelectCtx(ctx, args...)
	if err != nil {
		return nil, err
	}
	return endpoint.ReplayRows(res), nil
}

func (h batchStubHandle) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	res, err := h.group(ctx, argSets)
	if err != nil {
		return nil, err
	}
	return endpoint.ReplaySets(res), nil
}

func (h batchStubHandle) group(ctx context.Context, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	start := time.Now()
	h.s.groups.Add(1)
	h.s.tuples.Add(int64(len(argSets)))
	if h.s.release != nil {
		select {
		case <-h.s.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	time.Sleep(time.Duration(len(argSets)) * h.s.perTuple)
	h.s.elapsed.Store(int64(time.Since(start)))
	if h.s.err != nil {
		return nil, h.s.err
	}
	out := make([]*sparql.Result, len(argSets))
	for i := range out {
		out[i] = &sparql.Result{Vars: []string{"y"}}
	}
	return out, nil
}

func stubGroup(n int) [][]sparql.Arg {
	out := make([][]sparql.Arg, n)
	for i := range out {
		out[i] = []sparql.Arg{sparql.IRIArg(fmt.Sprintf("http://x/s%d", i))}
	}
	return out
}

// A group is one attempt and not one latency sample: one request and
// one success on the replica's books, and in the hedge window its
// duration divided by its tuples. The bounds are the group's duration
// as the replica measured it inside the call and as this test measured
// it around it — whatever the clock did, the attempt's lies between.
func TestGroupIsOneAttemptNotOneSample(t *testing.T) {
	const n = 10
	stub := &batchStub{name: "stub/shard-0-of-1", perTuple: 2 * time.Millisecond}
	set, err := NewReplicas([]endpoint.Endpoint{stub}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := selectGroup(context.Background(), pq, stubGroup(n))
	around := time.Since(start)
	if err != nil || len(res) != n {
		t.Fatalf("%d results, %v", len(res), err)
	}
	rep := set.reps[0]
	rep.mu.Lock()
	requests, samples, sample := rep.requests, rep.latN, rep.lat[0]
	rep.mu.Unlock()
	if requests != 1 || samples != 1 || stub.groups.Load() != 1 || stub.tuples.Load() != n {
		t.Fatalf("%d requests, %d samples, %d groups of %d tuples; want one of each and %d tuples",
			requests, samples, stub.groups.Load(), stub.tuples.Load(), n)
	}
	inside := time.Duration(stub.elapsed.Load())
	if sample < inside/n || sample > around/n {
		t.Fatalf("recorded %v for a %d-tuple group that took %v inside the call and %v around it: want a per-tuple sample between %v and %v",
			sample, n, inside, around, inside/n, around/n)
	}
	// An empty group is no attempt at all.
	if res, err := selectGroup(context.Background(), pq, nil); err != nil || len(res) != 0 || stub.groups.Load() != 1 {
		t.Fatalf("empty group: %v, %v, %d groups reached the replica", res, err, stub.groups.Load())
	}
}

// A retriable error moves the whole group to the next replica and costs
// the failed one a single strike; a semantic error propagates at once.
func TestGroupFailsOverWhole(t *testing.T) {
	const n = 8
	down := &batchStub{name: "stub/shard-0-of-1", err: &endpoint.StatusError{Code: 503}}
	up := &batchStub{name: "stub/shard-0-of-1"}
	set, err := NewReplicas([]endpoint.Endpoint{down, up}, Options{FailAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := selectGroup(context.Background(), pq, stubGroup(n)); err != nil || len(res) != n {
		t.Fatalf("%d results, %v", len(res), err)
	}
	if down.groups.Load() != 1 || up.groups.Load() != 1 || up.tuples.Load() != n {
		t.Fatalf("failed replica saw %d groups, the next %d groups of %d tuples; want 1, 1 and %d",
			down.groups.Load(), up.groups.Load(), up.tuples.Load(), n)
	}
	if st := set.Status()[0]; st.Fails != 1 || st.Errors != 1 || st.Requests != 1 {
		t.Fatalf("failed replica's books: %+v; want one request, one error, one strike", st)
	}

	down.err = endpoint.ErrQuotaExceeded
	if _, err := selectGroup(context.Background(), pq, stubGroup(n)); !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if up.groups.Load() != 1 {
		t.Fatal("a quota error was retried on the next replica")
	}
}

// An attempt carrying n tuples is given n times the hedge delay: a
// 50-tuple group still running after three delays has not been hedged,
// where a single probe would have been after one.
func TestGroupHedgeDelayScales(t *testing.T) {
	const delay = 10 * time.Millisecond
	first := &batchStub{name: "stub/shard-0-of-1", release: make(chan struct{})}
	second := &batchStub{name: "stub/shard-0-of-1"}
	set, err := NewReplicas([]endpoint.Endpoint{first, second}, Options{HedgeDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := selectGroup(context.Background(), pq, stubGroup(50))
		done <- err
	}()
	time.Sleep(3 * delay)
	hedged := second.groups.Load()
	close(first.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if hedged != 0 {
		t.Fatalf("a 50-tuple group was hedged within %v of a %v delay", 3*delay, delay)
	}
}

// streamStub is a replica whose prepared handle takes groups of streams
// natively: StreamBatch waits delay — through a cancellation when deaf —
// fails with err when that is set, and otherwise answers one empty set
// per tuple. It records opens and closes, the context of its last group,
// and every step a consumer took in a group whose context had ended.
type streamStub struct {
	batchStub
	delay time.Duration
	deaf  bool

	opens, closes, late atomic.Int64
	last                atomic.Value // context.Context
}

func (s *streamStub) Prepare(string, ...string) (endpoint.PreparedQuery, error) {
	return streamStubHandle{batchStubHandle{&s.batchStub}, s}, nil
}

type streamStubHandle struct {
	batchStubHandle
	s *streamStub
}

func (h streamStubHandle) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	h.s.opens.Add(1)
	h.s.last.Store(ctx)
	select {
	case <-time.After(h.s.delay):
	case <-ctx.Done():
		if !h.s.deaf {
			return nil, ctx.Err()
		}
		time.Sleep(h.s.delay)
	}
	if h.s.err != nil {
		return nil, h.s.err
	}
	results := make([]*sparql.Result, len(argSets))
	for i := range results {
		results[i] = &sparql.Result{Vars: []string{"y"}}
	}
	return &stubSets{RowSets: endpoint.ReplaySets(results), ctx: ctx, s: h.s}, nil
}

type stubSets struct {
	endpoint.RowSets
	ctx context.Context
	s   *streamStub
}

func (r *stubSets) NextResultSet() bool {
	if r.ctx.Err() != nil {
		r.s.late.Add(1)
	}
	return r.RowSets.NextResultSet()
}

func (r *stubSets) Close() {
	r.s.closes.Add(1)
	r.RowSets.Close()
}

func eventually(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
	}
}

// The hedge race of a group of streams is decided at its open, like a
// stream's: the loser's group — here one that opens after all, deaf to
// its cancellation — is closed, and the winner's context stays alive
// across every set, to be released when the group is closed.
func TestHedgeGroupOpen(t *testing.T) {
	const n = 4
	slow := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1"}, delay: 100 * time.Millisecond, deaf: true}
	fast := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1"}}
	set, err := NewReplicas([]endpoint.Endpoint{slow, fast}, Options{HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pq.(endpoint.BatchStreamer); !ok {
		t.Fatal("a set of replicas that take groups of streams does not")
	}
	sets, err := endpoint.StreamBatch(context.Background(), pq, stubGroup(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if sets.Next() || !sets.NextResultSet() {
			t.Fatalf("set %d of %d: %v", i, n, sets.Err())
		}
	}
	winner := fast.last.Load().(context.Context)
	if fast.opens.Load() != 1 || fast.late.Load() != 0 || winner.Err() != nil {
		t.Fatalf("winner: %d opens, %d steps under a dead context, context %v before the group is closed",
			fast.opens.Load(), fast.late.Load(), winner.Err())
	}
	sets.Close()
	if winner.Err() == nil || fast.closes.Load() != 1 {
		t.Fatalf("closing the group: winner's context %v, %d closes", winner.Err(), fast.closes.Load())
	}
	eventually(t, "the losing attempt's group was never closed", func() bool { return slow.closes.Load() == 1 })

	// Used up rather than closed, the group lets go of the context too.
	if sets, err = endpoint.StreamBatch(context.Background(), pq, stubGroup(2)); err != nil {
		t.Fatal(err)
	}
	if winner = fast.last.Load().(context.Context); !sets.NextResultSet() || winner.Err() != nil || sets.NextResultSet() || winner.Err() == nil {
		t.Fatalf("a group read to its end: context %v", winner.Err())
	}
	sets.Close()
}

// A group of streams that cannot be opened on one replica opens on the
// next, whole, and costs the failed one a single strike; once open it
// is not retried, and a semantic error is not either.
func TestStreamGroupFailsOverAtOpen(t *testing.T) {
	const n = 6
	down := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1", err: &endpoint.StatusError{Code: 503}}}
	up := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1"}}
	set, err := NewReplicas([]endpoint.Endpoint{down, up}, Options{FailAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	opened := 0
	err = eachSet(context.Background(), pq, stubGroup(n), func(int, endpoint.Rows) error { opened++; return nil })
	if err != nil || opened != n || down.opens.Load() != 1 || up.opens.Load() != 1 || up.closes.Load() != 1 {
		t.Fatalf("%d sets, %v; %d and %d opens, %d closes", opened, err, down.opens.Load(), up.opens.Load(), up.closes.Load())
	}
	if st := set.Status()[0]; st.Fails != 1 || st.Errors != 1 || st.Requests != 1 {
		t.Fatalf("failed replica's books: %+v; want one request, one error, one strike", st)
	}
	down.err = endpoint.ErrQuotaExceeded
	if sets, err := endpoint.StreamBatch(context.Background(), pq, stubGroup(n)); !errors.Is(err, endpoint.ErrQuotaExceeded) || sets != nil || up.opens.Load() != 1 {
		t.Fatalf("a quota error at open: %v, %v, %d opens on the next replica", sets, err, up.opens.Load())
	}
}

// An empty group is no attempt at all: it reaches no replica, costs none
// a request, and puts no latency sample of about 0 in the window the
// percentile hedge delay is read from.
func TestStreamGroupEmptyIsNoAttempt(t *testing.T) {
	first := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1"}}
	second := &streamStub{batchStub: batchStub{name: "stub/shard-0-of-1"}}
	set, err := NewReplicas([]endpoint.Endpoint{first, second}, Options{HedgePercentile: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	sets, err := endpoint.StreamBatch(context.Background(), pq, nil)
	if err != nil || sets.Next() || sets.NextResultSet() || sets.Err() != nil {
		t.Fatalf("an empty group: %v, %v", err, sets.Err())
	}
	sets.Close()
	rep := set.reps[0]
	rep.mu.Lock()
	samples := rep.latN
	rep.mu.Unlock()
	if st := set.Status()[0]; st.Requests != 0 || samples != 0 || first.opens.Load() != 0 || second.opens.Load() != 0 {
		t.Fatalf("an empty group: first replica's books %+v, %d latency samples, %d and %d opens",
			st, samples, first.opens.Load(), second.opens.Load())
	}
}

// cutServer serves k like sparqld but cuts every grouped answer inside
// its set at: the declared length is not met, and the connection ends
// in the middle of that set's frames.
func cutServer(t *testing.T, k *kb.KB, at int) *httptest.Server {
	h := endpoint.NewServer(endpoint.NewLocal(k, 3))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if !strings.Contains(rec.Header().Get("Content-Type"), "; sets=") {
			w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
			_, _ = w.Write(body)
			return
		}
		cut := 0
		for set := 0; set <= at; set++ {
			cut += bytes.Index(body[cut:], []byte(`{"head"`)) + 1
		}
		cut += bytes.IndexByte(body[cut:], '\n') + 3 // into the set's first frame after its head
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body[:cut])
		w.(http.Flusher).Flush() // the open's bytes leave; the rest never does
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// A group drained over a replica set fails over whole at its open, and
// only there: a body cut inside set k after the open is the transport's
// error — never fewer results — the group is not sent again, and the
// replica that answered takes no strike.
func TestStreamGroupCutAfterOpen(t *testing.T) {
	src := groupKB(30)
	for _, at := range []int{0, 2} {
		cut, whole := cutServer(t, src, at), httptest.NewServer(endpoint.NewServer(endpoint.NewLocal(src, 3)))
		t.Cleanup(whole.Close)
		set, err := NewReplicas([]endpoint.Endpoint{
			endpoint.NewClient("group", cut.URL, cut.Client()),
			endpoint.NewClient("group", whole.URL, whole.Client()),
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer set.Close()
		pq, err := set.Prepare("SELECT ?y WHERE { $x $r ?y }", "x", "r")
		if err != nil {
			t.Fatal(err)
		}
		argSets := make([][]sparql.Arg, 4)
		for i := range argSets {
			argSets[i] = []sparql.Arg{sparql.IRIArg(fmt.Sprintf("http://x/s%03d", i)), sparql.IRIArg("http://x/a")}
		}
		res, err := selectGroup(context.Background(), pq, argSets)
		if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) || res != nil {
			t.Fatalf("cut inside set %d: %d results, %v; want the transport error and none", at, len(res), err)
		}
		st := set.Status()
		if st[0].Requests != 1 || st[0].Fails != 0 || st[0].Errors != 0 || st[1].Requests != 0 {
			t.Fatalf("cut inside set %d: replicas' books %+v; want one clean open on the first and nothing on the second", at, st)
		}
	}
}

// lateReader is a replica whose prepared handle waits delay, heedless of
// its context, before it reads its first argument, and reports what it
// read on seen: an attempt descheduled past the call that launched it.
type lateReader struct {
	endpoint.Endpoint
	delay time.Duration
	seen  chan string
}

func (e *lateReader) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	return lateHandle{pq, e}, err
}

type lateHandle struct {
	endpoint.PreparedQuery
	e *lateReader
}

func (h lateHandle) read(args []sparql.Arg) {
	time.Sleep(h.e.delay)
	term, _ := args[0].Term()
	h.e.seen <- term.Value
}

func (h lateHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	h.read(args)
	return h.PreparedQuery.SelectCtx(ctx, args...)
}

func (h lateHandle) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	h.read(argSets[0])
	return endpoint.StreamBatch(ctx, h.PreparedQuery, argSets)
}

// TestHedgedAttemptOwnsItsArgs: arguments are the callee's for the call
// alone (endpoint.PreparedQuery, endpoint.BatchStreamer), and a hedged
// attempt can outlive the call — here the hedge, launched after 1ms,
// reads its arguments 30ms later, long after the first replica's answer
// at 5ms has returned and the caller has written another subject into
// its slice. The attempt must read the arguments it was launched with.
func TestHedgedAttemptOwnsItsArgs(t *testing.T) {
	k := kb.New("late/shard-0-of-1")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/o")
	k.Freeze()
	seen := make(chan string, 4)
	first := &lateReader{endpoint.NewLocal(k, 1), 5 * time.Millisecond, seen}
	hedged := &lateReader{endpoint.NewLocal(k, 1), 30 * time.Millisecond, seen}
	set, err := NewReplicas([]endpoint.Endpoint{first, hedged}, Options{HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	pq, err := set.Prepare("SELECT ?y WHERE { $x <http://x/p> ?y }", "x")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		call func(args []sparql.Arg) error
	}{
		{"SelectCtx", func(args []sparql.Arg) error {
			_, err := pq.SelectCtx(ctx, args...)
			return err
		}},
		{"StreamBatch", func(args []sparql.Arg) error {
			_, err := selectGroup(ctx, pq, [][]sparql.Arg{args, args})
			return err
		}},
	} {
		args := []sparql.Arg{sparql.IRIArg("http://x/a")}
		if err := c.call(args); err != nil {
			t.Fatal(err)
		}
		args[0] = sparql.IRIArg("http://x/b")
		for i := range 2 {
			select {
			case got := <-seen:
				if got != "http://x/a" {
					t.Errorf("%s: attempt %d read %s, want http://x/a", c.name, i, got)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: attempt %d never read its arguments", c.name, i)
			}
		}
	}
}
