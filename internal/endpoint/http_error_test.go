package endpoint

import (
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
	"time"

	"sofya/internal/sparql"
)

// http_error_test.go injects failures into the HTTP protocol — the
// paths a real network exercises and a clean test run never does:
// malformed JSON, mid-stream disconnects, context cancellation, error
// status codes, and their classification for failover (Retriable).

func TestClientMalformedJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ResultsContentType)
		io.WriteString(w, `{"head": {"vars": ["x"]}, "results": {"bindings": [{"x"`)
	}))
	defer srv.Close()
	client := NewClient("bad", srv.URL, nil)
	if _, err := client.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }"); err == nil {
		t.Fatal("malformed JSON was accepted")
	}
}

func TestClientStatusErrorSnippet(t *testing.T) {
	long := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "engine exploded: "+long, http.StatusInternalServerError)
	}))
	defer srv.Close()
	client := NewClient("bad", srv.URL, nil)
	_, err := client.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error is not a StatusError: %v", err)
	}
	if se.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d", se.Code)
	}
	if !strings.Contains(se.Snippet, "engine exploded") {
		t.Fatalf("snippet lost the body: %q", se.Snippet)
	}
	if len(se.Snippet) > snippetLimit+len("…") {
		t.Fatalf("snippet not capped: %d bytes", len(se.Snippet))
	}
	if !Retriable(err) {
		t.Fatal("5xx must be retriable")
	}
}

func TestClient4xxNotRetriable(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such query form", http.StatusBadRequest)
	}))
	defer srv.Close()
	client := NewClient("bad", srv.URL, nil)
	_, err := client.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }")
	if err == nil || Retriable(err) {
		t.Fatalf("4xx must be a fatal error, got %v (retriable=%v)", err, Retriable(err))
	}
}

func TestClientQuotaIdentityPreserved(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "quota", http.StatusTooManyRequests)
	}))
	defer srv.Close()
	client := NewClient("q", srv.URL, nil)
	if _, err := client.SelectCtx(context.Background(), "SELECT ?x WHERE { ?x ?p ?o }"); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("429 did not map to ErrQuotaExceeded: %v", err)
	}
	pq, err := client.Prepare("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Stream(context.Background()); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("429 on stream open did not map to ErrQuotaExceeded: %v", err)
	}
	if Retriable(ErrQuotaExceeded) {
		t.Fatal("quota errors must not be retriable")
	}
}

// TestStreamQuotaErrorFrame: a quota trip mid-stream travels as the
// terminal error frame and surfaces as ErrQuotaExceeded.
func TestStreamQuotaErrorFrame(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", StreamContentType)
		io.WriteString(w, `{"head":{"vars":["x"]}}`+"\n")
		io.WriteString(w, `{"rows":[[{"type":"uri","value":"http://x/a"}]]}`+"\n")
		io.WriteString(w, `{"error":"endpoint: query quota exceeded","quota":true}`+"\n")
	}))
	defer srv.Close()
	client := NewClient("q", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("rows before the error = %d, want 1", n)
	}
	if !errors.Is(rows.Err(), ErrQuotaExceeded) {
		t.Fatalf("mid-stream quota error lost its identity: %v", rows.Err())
	}
}

// TestStreamCutMidFlight: a connection dropped between frames is a
// transport error, not a silently short result.
func TestStreamCutMidFlight(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", StreamContentType)
		io.WriteString(w, `{"head":{"vars":["x"]}}`+"\n")
		io.WriteString(w, `{"rows":[[{"type":"uri","value":"http://x/a"}]]}`+"\n")
		w.(http.Flusher).Flush()
		// Kill the TCP connection without a terminal frame.
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()
	client := NewClient("cut", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("rows before the cut = %d, want 1", n)
	}
	err = rows.Err()
	if err == nil {
		t.Fatal("mid-stream disconnect was silent")
	}
	if !strings.Contains(err.Error(), "cut mid-flight") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !Retriable(err) {
		t.Fatalf("a cut stream must be retriable: %v", err)
	}
}

// TestStreamGarbageFrame: undecodable frame bytes fail the stream.
func TestStreamGarbageFrame(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", StreamContentType)
		io.WriteString(w, `{"head":{"vars":["x"]}}`+"\n")
		io.WriteString(w, "this is not JSON\n")
	}))
	defer srv.Close()
	client := NewClient("garbage", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("garbage frame was accepted")
	}
}

// TestStreamContextCancellation: canceling the stream's context aborts
// the transfer; the consumer sees an error, not a truncated success.
func TestStreamContextCancellation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm() // drain the body so the client abort is detected
		w.Header().Set("Content-Type", StreamContentType)
		io.WriteString(w, `{"head":{"vars":["x"]}}`+"\n")
		io.WriteString(w, `{"rows":[[{"type":"uri","value":"http://x/a"}]]}`+"\n")
		w.(http.Flusher).Flush()
		select { // hold the stream open until the client gives up
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	client := NewClient("cancel", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := pq.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("first row missing: %v", rows.Err())
	}
	cancel()
	done := make(chan struct{})
	go func() {
		for rows.Next() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled stream did not unblock")
	}
	if rows.Err() == nil {
		t.Fatal("cancellation was silent")
	}
}

// TestClientCallCancellation: a canceled whole-result call returns the
// context error, which is never retried.
func TestClientCallCancellation(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.ParseForm() // drain the body so the client abort is detected
		close(started)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	client := NewClient("cancel", srv.URL, nil)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.SelectCtx(ctx, "SELECT ?x WHERE { ?x ?p ?o }")
		errc <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled call succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled call did not surface context.Canceled: %v", err)
		}
		if Retriable(err) {
			t.Fatal("a caller's own cancellation must not be retried")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled call did not return")
	}
}

// TestClientFormMismatch: a call whose text or template is of the other
// form is refused at the Client with the error Local gives, before any
// request — the server would answer it in its own form, which reads back
// as a false, an empty result or a stream of no rows.
func TestClientFormMismatch(t *testing.T) {
	local := NewLocal(testKB(), 1)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		NewServer(local).ServeHTTP(w, r)
	}))
	defer srv.Close()
	ctx := context.Background()
	client := NewClient("test", srv.URL, srv.Client())
	askTmpl, err := client.Prepare(`ASK { $x <http://x/p> ?y }`, "x")
	if err != nil {
		t.Fatal(err)
	}
	a, b := sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/b")
	for _, c := range []struct {
		name string
		run  func(ep Endpoint, ask PreparedQuery) error
		want error
	}{
		{"AskCtx of a SELECT", func(ep Endpoint, _ PreparedQuery) error { _, err := ep.AskCtx(ctx, selP); return err }, errNeedAsk},
		{"SelectCtx of an ASK", func(ep Endpoint, _ PreparedQuery) error { _, err := ep.SelectCtx(ctx, askAB); return err }, errNeedSelect},
		{"Stream of an ASK template", func(_ Endpoint, ask PreparedQuery) error {
			rows, err := ask.Stream(ctx, a)
			if rows != nil {
				rows.Close()
			}
			return err
		}, errNeedSelect},
		{"StreamBatch of an ASK template", func(_ Endpoint, ask PreparedQuery) error {
			sets, err := StreamBatch(ctx, ask, [][]sparql.Arg{{a}, {b}})
			if sets != nil {
				sets.Close()
			}
			return err
		}, errNeedSelect},
	} {
		localAsk, err := local.Prepare(`ASK { $x <http://x/p> ?y }`, "x")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.run(local, localAsk); err != c.want {
			t.Fatalf("%s on a Local: %v, want %v", c.name, err, c.want)
		}
		if err := c.run(client, askTmpl); err != c.want {
			t.Errorf("%s on a Client: %v, want Local's %v", c.name, err, c.want)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("%d requests sent for calls of the wrong form", n)
	}
	if ok, err := askTmpl.AskCtx(ctx, a); err != nil || !ok {
		t.Fatalf("the ASK template asked as one: %v, %v", ok, err)
	}
}

// TestServerStreamAskRejected: the stream flag applies to SELECT; an
// ASK with stream=1 still answers the plain JSON document.
func TestServerStreamAskRejected(t *testing.T) {
	local := NewLocal(testKB(), 1)
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL, map[string][]string{
		"query":  {"ASK { ?x <http://x/p> ?y }"},
		"stream": {"1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, ResultsContentType) {
		t.Fatalf("ASK answered with content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	res, err := UnmarshalResults(body)
	if err != nil || !res.Ask {
		t.Fatalf("ASK answer corrupted: %v %v", res, err)
	}
}

// TestClientFormEncoding: the request body the client builds by hand is
// byte for byte what url.Values.Encode makes of the same fields.
func TestClientFormEncoding(t *testing.T) {
	for _, fields := range []url.Values{
		{"query": {"SELECT ?x WHERE { ?x <http://x/p> \"a b+c&d=e%\\n\"@en } LIMIT 3"}},
		{"query": {"ASK { }"}, "stream": {"1"}, "multi": {"é\x00\xff~_-.*/:?#[]@!$'()"}},
		{"query": {""}, "stream": {"1"}},
	} {
		var got []byte
		for _, name := range []string{"multi", "query", "stream"} {
			if fields.Has(name) {
				got = appendFormField(got, name, fields.Get(name))
			}
		}
		if want := fields.Encode(); string(got) != want {
			t.Errorf("form body %q, url.Values.Encode gives %q", got, want)
		}
	}
}

// TestServerParseErrorMessage: the handler does not parse the query
// itself, and still a text that does not parse is a 400 that carries
// the parser's message — on the document path, the stream path and the
// ASK path alike.
func TestServerParseErrorMessage(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	for name, form := range map[string]url.Values{
		"select": {"query": {"SELECT ?x WHERE { ?x <http://x/p> }"}},
		"stream": {"query": {"SELECT ?x WHERE { ?x <http://x/p> }"}, "stream": {"1"}},
		"ask":    {"query": {"PREFIX x: <http://x/> ASK { ?x x:p }"}},
		"words":  {"query": {"this is not SPARQL"}, "stream": {"1"}},
	} {
		resp, err := http.PostForm(srv.URL, form)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "sparql: ") {
			t.Errorf("%s: status %d, body %q; want 400 and the parser's message", name, resp.StatusCode, body)
		}
	}
}

// TestServerOversizedQuery: a request body over the limit is refused
// whole with a 413, whichever way it carries the query. Reading only
// its first megabyte would execute a different query whenever the cut
// leaves one that parses — here LIMIT 10 would become LIMIT 1.
func TestServerOversizedQuery(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(bigKB(20), 1)))
	defer srv.Close()
	const query = "SELECT ?s WHERE { ?s <http://x/p> ?o } LIMIT 10"
	post := func(contentType, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, answer
	}
	// The query sits at the end of the body, behind padding that is
	// white space to the parser ("+" in a form), so that a body one
	// byte over the limit loses exactly the last digit of its LIMIT.
	for _, c := range []struct{ contentType, prefix, pad string }{
		{"application/sparql-query", "", " "},
		{"application/x-www-form-urlencoded", "query=", "+"},
	} {
		tail := query
		if c.prefix != "" {
			tail = url.QueryEscape(query)
		}
		body := func(size int) string {
			return c.prefix + strings.Repeat(c.pad, size-len(c.prefix)-len(tail)) + tail
		}
		code, answer := post(c.contentType, body(maxQueryBytes-1))
		if code != http.StatusOK {
			t.Fatalf("%s: a body one byte under the limit: status %d: %s", c.contentType, code, answer)
		}
		if res, err := UnmarshalResults(answer); err != nil || len(res.Rows) != 10 {
			t.Fatalf("%s: a body one byte under the limit: %v, %v", c.contentType, res, err)
		}
		if code, answer := post(c.contentType, body(maxQueryBytes+1)); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: a body one byte over the limit: status %d, want 413: %.100s", c.contentType, code, answer)
		}
	}
}

// TestServerMethodNotAllowed: the protocol is GET and POST; any other
// method is a 405 that says so, whatever the request carries.
func TestServerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	const query = "query=ASK+%7B+%3Fs+%3Fp+%3Fo+%7D"
	for _, c := range []struct {
		method, body string
		code         int
	}{
		{http.MethodGet, "", http.StatusOK},
		{http.MethodPost, query, http.StatusOK},
		{http.MethodPut, query, http.StatusMethodNotAllowed},
		{http.MethodDelete, "", http.StatusMethodNotAllowed},
		{http.MethodPatch, query, http.StatusMethodNotAllowed},
		{http.MethodHead, "", http.StatusMethodNotAllowed},
		{http.MethodOptions, "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(c.method, srv.URL+"?"+query, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		allow := resp.Header.Get("Allow")
		if resp.StatusCode != c.code || (c.code == http.StatusMethodNotAllowed) != (allow == "GET, POST") {
			t.Errorf("%s: status %d, Allow %q; want %d", c.method, resp.StatusCode, allow, c.code)
		}
	}
}

// TestServerFormBodies: the ways a POST can carry its form. The handler
// decodes the body itself only when nothing has read it and its media
// type is written plainly; a form a handler in front has parsed (and
// edited) is taken from there, a media type with a parameter goes
// through net/http's parser, and a body that is no form has no query.
func TestServerFormBodies(t *testing.T) {
	h := NewServer(NewLocal(testKB(), 1))
	const body = "query=ASK+%7B+%3Chttp%3A%2F%2Fx%2Fa%3E+%3Fp+%3Fo+%7D"
	post := func(h http.Handler, contentType, body string, chunked bool) (int, string) {
		t.Helper()
		srv := httptest.NewServer(h)
		defer srv.Close()
		var rd io.Reader = strings.NewReader(body)
		if chunked {
			rd = io.MultiReader(rd) // no length to declare
		}
		resp, err := http.Post(srv.URL, contentType, rd)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		answer, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(answer)
	}
	parsed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err != nil {
			t.Error(err)
		}
		r.PostForm.Set("query", "ASK { <http://x/nobody> ?p ?o }")
		h.ServeHTTP(w, r)
	})
	const yes, no = `{"head":{},"boolean":true}`, `{"head":{},"boolean":false}`
	for _, c := range []struct {
		name        string
		h           http.Handler
		contentType string
		body        string
		chunked     bool
		code        int
		answer      string
	}{
		{"plain", h, "application/x-www-form-urlencoded", body, false, 200, yes},
		{"chunked", h, "application/x-www-form-urlencoded", body, true, 200, yes},
		{"chunked, too long", h, "application/x-www-form-urlencoded", body + "&x=" + strings.Repeat("x", maxQueryBytes), true, 413, ""},
		{"charset parameter", h, "application/x-www-form-urlencoded; charset=UTF-8", body, false, 200, yes},
		{"parsed in front", parsed, "application/x-www-form-urlencoded", body, false, 200, no},
		{"not a form", h, "text/plain", body, false, 400, "endpoint: missing query parameter\n"},
		{"bad escape", h, "application/x-www-form-urlencoded", body + "&x=%zz", false, 400, "invalid URL escape \"%zz\"\n"},
		{"semicolon", h, "application/x-www-form-urlencoded", body + "&a;b", false, 400, "invalid semicolon separator in query\n"},
		{"no query", h, "application/x-www-form-urlencoded", "stream=1", false, 400, "endpoint: missing query parameter\n"},
		{"first query empty", h, "application/x-www-form-urlencoded", "query=&" + body, false, 400, "endpoint: missing query parameter\n"},
	} {
		code, answer := post(c.h, c.contentType, c.body, c.chunked)
		if code != c.code || (c.answer != "" && answer != c.answer) {
			t.Errorf("%s: status %d, answer %q; want %d, %q", c.name, code, answer, c.code, c.answer)
		}
	}
}

// FuzzFormDecode holds the handler's own form decoder to net/url's: it
// refuses the bodies url.ParseQuery refuses, and of one it accepts it
// reads the fields url.Values.Get and the query list would give.
func FuzzFormDecode(f *testing.F) {
	const text = "SELECT ?x WHERE { ?x <http://x/p> \"a b+c&d=e%;\\n\"@en } LIMIT 3"
	// What the client sends: appendFormField's output, field by field
	// (with the orderspec field of a client built before PR 23).
	stream := appendFormField(appendFormField(appendFormField(nil, "orderspec", text+" ORDER BY ?x"), "query", text), "stream", "1")
	multi := appendFormField(appendFormField([]byte("multi=1"), "query", text), "query", "ASK { }")
	long := appendFormField(nil, "query", strings.Repeat("é ", maxQueryBytes/8))
	for _, seed := range [][]byte{stream, multi, long, stream[:len(stream)/2], appendFormField(nil, "query", "")} {
		f.Add(seed)
	}
	// And what anyone may: broken and cut escapes, semicolons, empty
	// keys and values, escaped keys, repeated and unknown fields.
	for _, seed := range []string{
		"", "&&", "=", "=v", "k", "k=", "a;b", "query=a&b;c=d", "query=%zz", "query=%", "query=%4", "query=%4g&x;y",
		"%71uery=x", "q%75ery=a+b%20c&%73tream=1", "stream=&stream=1&query=x", "stream=1&stream=&query=x",
		"multi=1&multi=0&query=a&query=&query=c", "multi=0&multi=1&query=a", "query=&query=b&multi=1",
		"orderspec=a&orderspec=b&query=x&format=json&default-graph-uri=", "query=a=b=c&query", "que ry=x&+query=y",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		vals, wantErr := url.ParseQuery(string(body))
		got, err := decodeForm(string(body))
		switch {
		case wantErr != nil:
			if err == nil {
				t.Fatalf("accepted %q, which url.ParseQuery refuses: %v", body, wantErr)
			}
			return
		case vals.Get("query") == "":
			if err == nil || err.Error() != "endpoint: missing query parameter" {
				t.Fatalf("%q has no query: %v", body, err)
			}
			return
		case err != nil:
			t.Fatalf("refused %q, which url.ParseQuery accepts: %v", body, err)
		}
		want := &wireReq{query: vals.Get("query"), stream: vals.Get("stream") == "1"}
		if vals.Get("multi") == "1" {
			want.multi = vals["query"]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q read as %+v, url.Values gives %+v", body, got, want)
		}
	})
}

// countOnlyWriter counts flushes without synchronization — for tests
// whose requests are strictly sequential.
type countOnlyWriter struct {
	http.ResponseWriter
	flushes *int
}

func (w *countOnlyWriter) Flush() {
	*w.flushes++
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrQuotaExceeded, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&StatusError{Code: 500}, true},
		{&StatusError{Code: 503}, true},
		{&StatusError{Code: 400}, false},
		{&StatusError{Code: 404}, false},
		{io.ErrUnexpectedEOF, true},
		{io.EOF, true},
		{fmt.Errorf("wrapping: %w", io.ErrUnexpectedEOF), true},
		{errors.New("some semantic failure"), false},
	}
	for i, c := range cases {
		if got := Retriable(c.err); got != c.want {
			t.Errorf("case %d: Retriable(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}
