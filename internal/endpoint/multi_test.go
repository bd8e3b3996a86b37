package endpoint

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// The aligner's four group shapes: three routed by their subject
// parameter, one (the sample probe) that every execution fans out.
var batchTemplates = []struct {
	name, tmpl string
	params     []string
	// args builds the tuple for subject i of batchKB.
	args func(i int) []sparql.Arg
}{
	{"objects", "SELECT ?y WHERE { $x $r ?y }", []string{"x", "r"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/p")}
	}},
	{"predsBetween", "SELECT ?p WHERE { $x ?p $y }", []string{"x", "y"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/o0")}
	}},
	{"literalAttrs", "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }", []string{"x"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg(batchSubject(i))}
	}},
	{"sample", sampleTmpl, []string{"r", "n"}, func(i int) []sparql.Arg {
		return []sparql.Arg{sparql.IRIArg("http://x/p"), sparql.IntArg(1 + i%5)}
	}},
}

func batchSubject(i int) string { return fmt.Sprintf("http://x/s%03d", i) }

// batchKB holds 40 subjects; subject i has i%4 objects under p — every
// fourth has none — one under q, and a literal name.
func batchKB() *kb.KB {
	k := kb.New("batch")
	for i := 0; i < 40; i++ {
		s := batchSubject(i)
		for j := 0; j < i%4; j++ {
			k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", j))
		}
		k.AddIRIs(s, "http://x/q", "http://x/o0")
		k.Add(rdf.NewTriple(rdf.NewIRI(s), rdf.NewIRI("http://x/name"), rdf.NewLiteral(fmt.Sprintf("subject %d", i))))
	}
	return k
}

// batchGroups are the groups every stack is held to, as subject
// indices. A subject past the KB's 40 matches nothing.
var batchGroups = map[string][]int{
	"empty":      {},
	"one":        {5},
	"ten":        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	"duplicates": {3, 7, 3, 3, 7},
	"no rows":    {4, 1000, 8, 2},
	"past cap":   seq(maxMultiQueries + 6),
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % 45
	}
	return out
}

// checkBatchContract holds build's stack to the drained-group contract
// (selectGroup): over the same stack built twice, a group answers what
// its tuples answer one by one, in order, and leaves the backing Local
// with the same statistics.
func checkBatchContract(t *testing.T, build func(t *testing.T, l *Local) Endpoint) {
	t.Helper()
	for _, tm := range batchTemplates {
		for group, subjects := range batchGroups {
			t.Run(tm.name+"/"+group, func(t *testing.T) {
				argSets := make([][]sparql.Arg, len(subjects))
				for i, s := range subjects {
					argSets[i] = tm.args(s)
				}
				checkBatchEqualsLoop(t, build, tm.tmpl, tm.params, argSets)
			})
		}
	}
}

func checkBatchEqualsLoop(t *testing.T, build func(t *testing.T, l *Local) Endpoint, tmpl string, params []string, argSets [][]sparql.Arg) {
	t.Helper()
	grouped, single := NewLocal(batchKB(), 7), NewLocal(batchKB(), 7)
	pg, err := build(t, grouped).Prepare(tmpl, params...)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := build(t, single).Prepare(tmpl, params...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := selectGroup(context.Background(), pg, argSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(argSets) {
		t.Fatalf("%d results for %d tuples", len(got), len(argSets))
	}
	for i, args := range argSets {
		want, err := ps.SelectCtx(context.Background(), args...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("tuple %d: group answered\n%s\nsingle probe\n%s", i, renderRes(got[i]), renderRes(want))
		}
	}
	if g, s := grouped.Stats(), single.Stats(); g != s {
		t.Fatalf("backing Local after the group %+v, after the single probes %+v", g, s)
	}
}

// countingHandler counts the requests that reach h.
type countingHandler struct {
	h    http.Handler
	reqs atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.reqs.Add(1)
	c.h.ServeHTTP(w, r)
}

// foreignHandler is an endpoint that is not sparqld: it reads the one
// query field the protocol defines, knows nothing of multi or stream,
// and answers a plain results document. texts records what it ran.
type foreignHandler struct {
	ep    Endpoint
	texts []string
}

func (f *foreignHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	text := r.FormValue("query")
	f.texts = append(f.texts, text)
	res, err := f.ep.SelectCtx(r.Context(), text)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	body, _ := MarshalSelect(res)
	w.Header().Set("Content-Type", ResultsContentType)
	_, _ = w.Write(body)
}

func serveClient(t *testing.T, h http.Handler) *Client {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return NewClient("batch", srv.URL, srv.Client())
}

// TestSelectBatchContract: one contract, every stack of this package —
// the decorators and Local through StreamBatch's per-tuple streams, the
// client natively against sparqld's handler and against a foreign one.
// shard.Group and cluster.Group run the same groups in their packages.
func TestSelectBatchContract(t *testing.T) {
	stacks := map[string]func(t *testing.T, l *Local) Endpoint{
		"Local":          func(_ *testing.T, l *Local) Endpoint { return l },
		"Caching(Local)": func(_ *testing.T, l *Local) Endpoint { return NewCaching(l, 0) },
		"Coalescing(Caching(Local))": func(_ *testing.T, l *Local) Endpoint {
			return NewCoalescing(NewCaching(l, 0))
		},
		"Coalescing(Local)": func(_ *testing.T, l *Local) Endpoint { return NewCoalescing(l) },
		"Admission(Local)": func(_ *testing.T, l *Local) Endpoint {
			return NewAdmission(l, Limits{MaxInFlight: 1})
		},
		"Client→Server(Local)": func(t *testing.T, l *Local) Endpoint { return serveClient(t, NewServer(l)) },
		"Client→foreign(Local)": func(t *testing.T, l *Local) Endpoint {
			return serveClient(t, &foreignHandler{ep: l})
		},
	}
	for name, build := range stacks {
		t.Run(name, func(t *testing.T) { checkBatchContract(t, build) })
	}
}

// TestSelectBatchRequests counts what a group costs on the wire: one
// request up to the cap, the next request past it, and — against a
// server that ignores the extension — exactly one request per text,
// each text once.
func TestSelectBatchRequests(t *testing.T) {
	tm := batchTemplates[0]
	group := func(n int) [][]sparql.Arg {
		out := make([][]sparql.Arg, n)
		for i := range out {
			out[i] = tm.args(i)
		}
		return out
	}
	for _, c := range []struct{ tuples, reqs int }{
		{0, 0}, {1, 1}, {10, 1}, {maxMultiQueries, 1}, {maxMultiQueries + 1, 2}, {2*maxMultiQueries + 2, 3},
	} {
		l := NewLocal(batchKB(), 7)
		h := &countingHandler{h: NewServer(l)}
		pq, err := serveClient(t, h).Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := selectGroup(context.Background(), pq, group(c.tuples)); err != nil {
			t.Fatal(err)
		}
		if got := int(h.reqs.Load()); got != c.reqs || l.Stats().Queries != c.tuples {
			t.Errorf("%d tuples: %d requests, %d queries; want %d requests", c.tuples, got, l.Stats().Queries, c.reqs)
		}
	}

	foreign := &foreignHandler{ep: NewLocal(batchKB(), 7)}
	h := &countingHandler{h: foreign}
	pq, err := serveClient(t, h).Prepare(tm.tmpl, tm.params...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selectGroup(context.Background(), pq, group(10)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, args := range group(10) {
		text, _ := pq.(*clientPrepared).tmpl.Text(args...)
		want = append(want, text)
	}
	if h.reqs.Load() != 10 || !reflect.DeepEqual(foreign.texts, want) {
		t.Errorf("foreign server: %d requests for texts\n%q\nwant each of\n%q\nonce, in order", h.reqs.Load(), foreign.texts, want)
	}
}

// TestSelectBatchByteChunks: a group whose texts together pass the
// server's body limit is split so that no request meets it.
func TestSelectBatchByteChunks(t *testing.T) {
	l := NewLocal(batchKB(), 7)
	var largest atomic.Int64
	srv := NewServer(l)
	h := &countingHandler{h: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n := r.ContentLength; n > largest.Load() {
			largest.Store(n)
		}
		srv.ServeHTTP(w, r)
	})}
	build := func(t *testing.T, _ *Local) Endpoint { return serveClient(t, h) }
	// 12 texts of ~200 KiB: at most four fit a request.
	argSets := make([][]sparql.Arg, 12)
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IRIArg(batchSubject(i)), sparql.IRIArg("http://x/" + strings.Repeat("p", 200<<10))}
	}
	argSets[5][1] = sparql.IRIArg("http://x/p") // and one that has rows
	pq, err := build(t, nil).Prepare(batchTemplates[0].tmpl, batchTemplates[0].params...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := selectGroup(context.Background(), pq, argSets)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 || len(got[5].Rows) != 1 || len(got[4].Rows) != 0 {
		t.Fatalf("results %d, rows of tuple 5: %d", len(got), len(got[5].Rows))
	}
	if reqs := h.reqs.Load(); reqs < 3 || reqs > 4 || largest.Load() > maxQueryBytes || l.Stats().Queries != 12 {
		t.Fatalf("%d requests, the largest of %d bytes, %d queries", reqs, largest.Load(), l.Stats().Queries)
	}
}

// failAt passes Prepare calls — the server prepares every text it is
// sent — through until call k (from 0), which fails with err; calls
// counts every call that arrived.
type failAt struct {
	Endpoint
	k     int
	err   error
	calls int
}

func (f *failAt) Prepare(template string, params ...string) (PreparedQuery, error) {
	f.calls++
	if f.calls-1 == f.k {
		return nil, f.err
	}
	return f.Endpoint.Prepare(template, params...)
}

// TestSelectBatchFailures: a group fails as its tuples one by one would
// have — at the first failing tuple, with that tuple's error, and with
// nothing after it run.
func TestSelectBatchFailures(t *testing.T) {
	tm := batchTemplates[0]
	argSets := make([][]sparql.Arg, 8)
	for i := range argSets {
		argSets[i] = tm.args(i)
	}
	const k = 3

	t.Run("quota", func(t *testing.T) {
		for name, build := range map[string]func(t *testing.T, l *Local) Endpoint{
			"Local":         func(_ *testing.T, l *Local) Endpoint { return l },
			"Client→Server": func(t *testing.T, l *Local) Endpoint { return serveClient(t, NewServer(l)) },
			"Client→foreign": func(t *testing.T, l *Local) Endpoint {
				return serveClient(t, &foreignHandler{ep: l})
			},
		} {
			l := NewLocalRestricted(batchKB(), 7, Quota{MaxQueries: k})
			pq, err := build(t, l).Prepare(tm.tmpl, tm.params...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := selectGroup(context.Background(), pq, argSets)
			if !errors.Is(err, ErrQuotaExceeded) || errors.Is(err, ErrOverloaded) || res != nil {
				t.Errorf("%s: %v, %v; want ErrQuotaExceeded", name, res, err)
			}
			if st := l.Stats(); st.Queries != k || st.Denied != 1 {
				t.Errorf("%s: %+v; want %d queries and one denial", name, st, k)
			}
		}
	})

	t.Run("shed mid-group", func(t *testing.T) {
		f := &failAt{Endpoint: NewLocal(batchKB(), 7), k: k, err: ErrOverloaded}
		pq, err := serveClient(t, NewServerEndpoint(f)).Prepare(tm.tmpl, tm.params...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = selectGroup(context.Background(), pq, argSets)
		if !errors.Is(err, ErrOverloaded) || !Retriable(err) {
			t.Errorf("err = %v, want a retriable ErrOverloaded", err)
		}
		if f.calls != k+1 {
			t.Errorf("%d texts reached the endpoint, want %d", f.calls, k+1)
		}
	})

	t.Run("parse error mid-group", func(t *testing.T) {
		l := NewLocal(batchKB(), 7)
		srv := httptest.NewServer(NewServer(l))
		defer srv.Close()
		form := url.Values{"multi": {"1"}, "query": {selP, selPX, "SELECT ?x WHERE {", selP}}
		resp, err := http.PostForm(srv.URL, form)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// A text that does not parse is refused before it is admitted.
		if resp.StatusCode != http.StatusBadRequest || l.Stats().Queries != 2 {
			t.Errorf("status %d (%s), %d queries; want 400 from the third text and the fourth not run", resp.StatusCode, body, l.Stats().Queries)
		}
	})
}

// TestServerMultiLimits: what a multi request may hold is checked
// before any of it runs.
func TestServerMultiLimits(t *testing.T) {
	l := NewLocal(batchKB(), 7)
	srv := httptest.NewServer(NewServer(l))
	defer srv.Close()
	post := func(form url.Values) (int, string, string) {
		t.Helper()
		resp, err := http.PostForm(srv.URL, form)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}
	texts := func(n int, text string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = text
		}
		return out
	}

	if code, _, body := post(url.Values{"multi": {"1"}, "query": texts(maxMultiQueries+1, selP)}); code != http.StatusBadRequest {
		t.Errorf("%d texts: status %d: %s", maxMultiQueries+1, code, body)
	}
	if code, _, body := post(url.Values{"multi": {"1"}, "query": {selP, askAB, selP}}); code != http.StatusBadRequest {
		t.Errorf("an ASK among the texts: status %d: %s", code, body)
	}
	if code, _, body := post(url.Values{"multi": {"1"}, "query": {selP, "SELECT ?x WHERE { ?x <http://x/" + strings.Repeat("p", maxQueryBytes) + "> ?y }"}}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a body over the limit: status %d: %.100s", code, body)
	}
	if q := l.Stats().Queries; q != 0 {
		t.Errorf("%d queries ran for refused requests", q)
	}

	// What is allowed: the cap itself, one text, and GET.
	setsOf := func(n int) string { return fmt.Sprintf("%s; sets=%d", StreamContentType, n) }
	code, ct, body := post(url.Values{"multi": {"1"}, "query": texts(maxMultiQueries, selP)})
	if res, err := readSets([]byte(body), maxMultiQueries); code != http.StatusOK || ct != setsOf(maxMultiQueries) || err != nil {
		t.Errorf("%d texts: status %d, %s, %v, %v", maxMultiQueries, code, ct, res, err)
	}
	code, ct, body = post(url.Values{"multi": {"1"}, "query": {selP}, "stream": {"1"}})
	if res, err := readSets([]byte(body), 1); code != http.StatusOK || ct != setsOf(1) || err != nil || len(res[0].Rows) == 0 {
		t.Errorf("one text: status %d, %s, %v, %v", code, ct, res, err)
	}
	resp, err := http.Get(srv.URL + "?" + url.Values{"multi": {"1"}, "query": {selP, selPX}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if res, err := readSets(got, 2); err != nil || len(res) != 2 {
		t.Errorf("GET: %v, %v", res, err)
	}
}

// readSets reads body as the answer to a group of n.
func readSets(body []byte, n int) ([]*sparql.Result, error) {
	rows, err := newWireRows(io.NopCloser(bytes.NewReader(body)), int64(len(body)), n, false)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := make([]*sparql.Result, n)
	for i := range out {
		if i > 0 && !rows.NextResultSet() {
			return nil, cmp.Or(rows.Err(), fmt.Errorf("%d sets of %d", i, n))
		}
		out[i] = &sparql.Result{Vars: rows.Vars()}
		for rows.Next() {
			out[i].Rows = append(out[i].Rows, rows.Row())
		}
		if err := rows.Err(); err != nil {
			return nil, err
		}
		out[i].Truncated = rows.Truncated()
	}
	return out, nil
}

// TestMultiAnswerRejects: an answer that does not hold exactly the
// sequences asked for is an error that names the sequence, over the wire
// a retriable one when the body was cut.
func TestMultiAnswerRejects(t *testing.T) {
	seq, _ := encodeStream(&stream{vars: []string{"y"}, rows: [][]rdf.Term{{rdf.NewIRI("http://x/a")}}})
	one := string(seq)
	for name, c := range map[string]struct {
		body, names string
		n           int
	}{
		"fewer":           {one + one, "(sequence 3 of 3)", 3},
		"more":            {one + one + one, "(sequence 2 of 2)", 2},
		"none":            {"", "", 1},
		"cut in a frame":  {one + one[:len(one)/2], "(sequence 2 of 2)", 2},
		"no last newline": {one + one[:len(one)-1], "(sequence 2 of 2)", 2},
		"not a frame":     {one + "{}x\n", "(sequence 2 of 2)", 2},
		"blank line":      {one + "\n" + one, "(sequence 2 of 2)", 2},
		"head twice":      {one[:strings.Index(one, "\n")+1] + one + one, "(sequence 1 of 2)", 2},
	} {
		if res, err := readSets([]byte(c.body), c.n); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("%s: %d results, %v; want an error naming %s", name, len(res), err, c.names)
		}
	}
	if res, err := readSets([]byte(one+one+" \n"), 2); err != nil || len(res) != 2 {
		t.Fatalf("a complete answer: %v, %v", res, err)
	}
	// An error frame where a sequence would begin ends the answer in its
	// error, typed when it says so; the sets before it were read.
	rows, err := newWireRows(io.NopCloser(strings.NewReader(one+`{"error":"out","quota":true}`+"\n")), -1, 3, false)
	if err != nil || !rows.Next() || rows.Next() || rows.Err() != nil {
		t.Fatalf("the set before the error: %v, %v", err, rows.Err())
	}
	if rows.NextResultSet() || !errors.Is(rows.Err(), ErrQuotaExceeded) || rows.NextResultSet() {
		t.Fatalf("after the error frame: %v, want ErrQuotaExceeded and no further set", rows.Err())
	}

	// A server that dies inside its answer: the declared length is not met.
	c := serveClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", StreamContentType+"; sets=2")
		w.Header().Set("Content-Length", fmt.Sprint(2*len(one)))
		_, _ = w.Write([]byte(one + one[:10]))
		panic(http.ErrAbortHandler)
	}))
	pq, err := c.Prepare(batchTemplates[0].tmpl, batchTemplates[0].params...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := selectGroup(context.Background(), pq, [][]sparql.Arg{batchTemplates[0].args(1), batchTemplates[0].args(2)})
	if err == nil || !Retriable(err) || res != nil {
		t.Fatalf("truncated answer: %v, %v; want a retriable error", res, err)
	}
}

// FuzzMultiAnswer: whatever the group reader accepts as n sets is what
// cutting the body after every end frame and reading each piece as a
// stream of its own yields.
func FuzzMultiAnswer(f *testing.F) {
	seq, _ := encodeStream(&stream{vars: []string{"y"}, rows: [][]rdf.Term{{rdf.NewIRI("http://x/a")}}})
	empty, _ := encodeStream(&stream{vars: []string{"p", "v"}, truncated: true})
	f.Add(append(append([]byte{}, seq...), empty...), 2)
	f.Add(seq, 1)
	f.Add([]byte{}, 0)
	f.Add(append(append([]byte{}, seq...), "\n\n"...), 2)
	f.Add(seq[:len(seq)-1], 1)
	f.Add(append(append([]byte{}, empty...), `{"error":"boom","quota":true}`+"\n"...), 2)
	f.Fuzz(func(t *testing.T, body []byte, n int) {
		if n < 1 || n > 16 {
			return
		}
		got, err := readSets(body, n)
		if err != nil {
			return
		}
		rest := body
		for i := 0; i < n; i++ {
			var want *stream
			for at := 0; want == nil; {
				nl := bytes.IndexByte(rest[at:], '\n')
				if nl < 0 {
					t.Fatalf("accepted as %d sets, but set %d does not end", n, i)
				}
				at += nl + 1
				if s, err := decodeStream(rest[:at]); err == nil && s.err == nil {
					want, rest = s, rest[at:]
				}
			}
			res := &sparql.Result{Vars: want.vars, Rows: want.rows, Truncated: want.truncated}
			if err := sameResult(got[i], res); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
		if len(bytes.TrimSpace(rest)) > 0 {
			t.Fatalf("accepted as %d sets with %q after them", n, rest)
		}
	})
}

// A 10-tuple group over an httptest loopback — ten texts rendered, one
// request, ten server executions, one answer, ten documents decoded —
// measured at 637 allocations, 661 while the server materialized the
// rows it encoded and the client decoded each frame into a slice of its
// own; the ten single probes cost 1,513. It read 353 through the drain
// this package exported until the aligner's probes went through one
// dispatch (sampling's send), and reads 359 through selectGroup, which
// copies each row. The ceiling, set at 2 × 594 when grouping came
// in, is below 2 × either count and stays.
func TestAllocCeilingSelectBatch(t *testing.T) {
	tm := batchTemplates[0]
	srv := httptest.NewServer(NewServer(NewLocal(batchKB(), 1)))
	defer srv.Close()
	pq, err := NewClient("batch", srv.URL, nil).Prepare(tm.tmpl, tm.params...)
	if err != nil {
		t.Fatal(err)
	}
	argSets := make([][]sparql.Arg, 10)
	for i := range argSets {
		argSets[i] = tm.args(i)
	}
	allocCeiling(t, 2*594, func() {
		if res, err := selectGroup(context.Background(), pq, argSets); err != nil || len(res) != 10 {
			t.Fatalf("%d results, %v", len(res), err)
		}
	})
}
