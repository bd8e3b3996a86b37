package endpoint

import (
	"bytes"
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

// batchGroups are the groups every BatchSelector is held to, as subject
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

// checkBatchContract holds build's stack to the SelectBatch contract:
// over the same stack built twice, a group answers what its tuples
// answer one by one, in order, and leaves the backing Local with the
// same statistics.
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
	got, err := SelectBatch(context.Background(), pg, argSets)
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
// the decorators and Local through the helper's loop, the client
// natively against sparqld's handler and against a foreign one.
// shard.Group and cluster.Group run the same groups in their packages.
func TestSelectBatchContract(t *testing.T) {
	stacks := map[string]func(t *testing.T, l *Local) Endpoint{
		"Local":          func(_ *testing.T, l *Local) Endpoint { return l },
		"Caching(Local)": func(_ *testing.T, l *Local) Endpoint { return NewCaching(l, 0) },
		"Coalescing(Caching(Local))": func(_ *testing.T, l *Local) Endpoint {
			return NewCoalescing(NewCaching(l, 0))
		},
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
		if _, err := SelectBatch(context.Background(), pq, group(c.tuples)); err != nil {
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
	if _, err := SelectBatch(context.Background(), pq, group(10)); err != nil {
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
	got, err := SelectBatch(context.Background(), pq, argSets)
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

// failAt passes SelectCtx calls through until call k (from 0), which
// fails with err; calls counts every call that arrived.
type failAt struct {
	Endpoint
	k     int
	err   error
	calls int
}

func (f *failAt) SelectCtx(ctx context.Context, q string) (*sparql.Result, error) {
	f.calls++
	if f.calls-1 == f.k {
		return nil, f.err
	}
	return f.Endpoint.SelectCtx(ctx, q)
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
			res, err := SelectBatch(context.Background(), pq, argSets)
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
		_, err = SelectBatch(context.Background(), pq, argSets)
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
		if resp.StatusCode != http.StatusBadRequest || l.Stats().Queries != 3 {
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
	code, ct, body := post(url.Values{"multi": {"1"}, "query": texts(maxMultiQueries, selP)})
	if code != http.StatusOK || ct != MultiContentType || strings.Count(body, "\n") != maxMultiQueries {
		t.Errorf("%d texts: status %d, %s, %d lines", maxMultiQueries, code, ct, strings.Count(body, "\n"))
	}
	code, ct, body = post(url.Values{"multi": {"1"}, "query": {selP}})
	if res, err := appendMultiAnswer(nil, []byte(body), 1); code != http.StatusOK || ct != MultiContentType || err != nil || len(res[0].Rows) == 0 {
		t.Errorf("one text: status %d, %s, %v, %v", code, ct, res, err)
	}
	resp, err := http.Get(srv.URL + "?" + url.Values{"multi": {"1"}, "query": {selP, selPX}}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if res, err := appendMultiAnswer(nil, got, 2); err != nil || len(res) != 2 {
		t.Errorf("GET: %v, %v", res, err)
	}
}

// TestMultiAnswerRejects: an answer that does not hold exactly the
// documents asked for is an error, over the wire a retriable one when
// the body was cut.
func TestMultiAnswerRejects(t *testing.T) {
	doc, _ := MarshalSelect(&sparql.Result{Vars: []string{"y"}, Rows: [][]rdf.Term{{rdf.NewIRI("http://x/a")}}})
	line := string(doc) + "\n"
	for name, c := range map[string]struct {
		body string
		n    int
	}{
		"fewer":           {line + line, 3},
		"more":            {line + line + line, 2},
		"none":            {"", 1},
		"cut in a line":   {line + line[:len(line)/2], 2},
		"no last newline": {line + string(doc), 2},
		"not a document":  {line + "{}x\n", 2},
		"blank line":      {line + "\n" + line, 3},
	} {
		if res, err := appendMultiAnswer(nil, []byte(c.body), c.n); err == nil {
			t.Errorf("%s: accepted as %d results", name, len(res))
		}
	}
	if res, err := appendMultiAnswer(nil, []byte(line+line), 2); err != nil || len(res) != 2 {
		t.Fatalf("a complete answer: %v, %v", res, err)
	}

	// A server that dies inside its answer: the declared length is not met.
	c := serveClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", MultiContentType)
		w.Header().Set("Content-Length", fmt.Sprint(2*len(line)))
		_, _ = w.Write([]byte(line + line[:10]))
		panic(http.ErrAbortHandler)
	}))
	pq, err := c.Prepare(batchTemplates[0].tmpl, batchTemplates[0].params...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SelectBatch(context.Background(), pq, [][]sparql.Arg{batchTemplates[0].args(1), batchTemplates[0].args(2)})
	if err == nil || !Retriable(err) || res != nil {
		t.Fatalf("truncated answer: %v, %v; want a retriable error", res, err)
	}
}

// FuzzMultiAnswer: whatever the multi reader accepts is what splitting
// the body at its newlines and reading every line as a results document
// yields.
func FuzzMultiAnswer(f *testing.F) {
	doc, _ := MarshalSelect(&sparql.Result{Vars: []string{"y"}, Rows: [][]rdf.Term{{rdf.NewIRI("http://x/a")}}})
	empty, _ := MarshalSelect(&sparql.Result{Vars: []string{"p", "v"}})
	f.Add(append(append(doc, '\n'), append(empty, '\n')...), 2)
	f.Add(append(doc, '\n'), 1)
	f.Add([]byte{}, 0)
	f.Add(append(doc, "\n\n"...), 2)
	f.Add(doc, 1)
	f.Add([]byte("{\"head\":{},\n\"boolean\":true}\n"), 1)
	f.Fuzz(func(t *testing.T, body []byte, n int) {
		got, err := appendMultiAnswer(nil, body, n)
		if err != nil {
			return
		}
		lines := bytes.Split(body, []byte("\n"))
		if last := len(lines) - 1; len(got) != n || last != n || len(lines[last]) != 0 {
			t.Fatalf("accepted as %d results for %d asked: %d lines, the last %q", len(got), n, len(lines), lines[last])
		}
		for i, line := range lines[:n] {
			want, err := UnmarshalResults(line)
			if err != nil {
				t.Fatalf("line %d accepted, but alone it reads: %v", i, err)
			}
			if err := sameResult(got[i], want); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
		}
	})
}

// A 10-tuple group over an httptest loopback — ten texts rendered, one
// request, ten server executions, one answer, ten documents decoded —
// measured at 594 allocations, where the ten single probes cost 1,513.
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
		if res, err := SelectBatch(context.Background(), pq, argSets); err != nil || len(res) != 10 {
			t.Fatalf("%d results, %v", len(res), err)
		}
	})
}
