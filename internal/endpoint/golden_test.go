package endpoint

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"sofya/internal/sparql"
)

// wireExchange is one request as the client wrote it and the answer as
// the server wrote it.
type wireExchange struct {
	name, request, contentType, answer string
}

// wireExchanges sends one probe of each kind the protocol has — a plain
// document, a stream, a multi group — from a Client to
// a Server over testKB and records the bytes that crossed.
func wireExchanges(t *testing.T) []wireExchange {
	t.Helper()
	var got []wireExchange
	h := NewServer(NewLocal(testKB(), 1))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		got = append(got, wireExchange{request: string(body), contentType: rec.Header().Get("Content-Type"), answer: rec.Body.String()})
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer srv.Close()
	c := NewClient("golden", srv.URL, srv.Client())
	ctx := context.Background()
	const text = `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`

	if _, err := c.SelectCtx(ctx, text); err != nil {
		t.Fatal(err)
	}
	pq, err := c.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(ctx)
	drainRows(t, rows, err)
	objects, err := c.Prepare("SELECT ?y WHERE { $x $r ?y }", "x", "r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SelectBatch(ctx, objects, [][]sparql.Arg{
		{sparql.IRIArg("http://x/a"), sparql.IRIArg("http://x/name")},
		{sparql.IRIArg("http://x/b"), sparql.IRIArg("http://x/year")},
	}); err != nil {
		t.Fatal(err)
	}
	sample, err := c.Prepare(sampleTmpl, "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = sample.Stream(ctx, sparql.IRIArg("http://x/p"), sparql.IntArg(2))
	drainRows(t, rows, err)
	if _, err := c.SelectCtx(ctx, "SELECT ?x WHERE { ?x <http://x/p> }"); err == nil {
		t.Fatal("a text that does not parse was answered")
	}
	for i, name := range []string{"plain", "stream", "multi", "RAND stream", "parse error"} {
		if i < len(got) {
			got[i].name = name
		}
	}
	return got
}

// wireGolden is what wireExchanges recorded at commit 4d057cf, before
// the server decoded forms itself, prepared stream texts through the
// plan cache and the client recycled read buffers.
var wireGolden = []wireExchange{
	{"plain",
		"query=SELECT+%3Fx+%3Fy+WHERE+%7B+%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%3Fy+%7D",
		"application/sparql-results+json",
		"{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":[{\"x\":{\"type\":\"uri\",\"value\":\"http://x/a\"},\"y\":{\"type\":\"uri\",\"value\":\"http://x/b\"}},{\"x\":{\"type\":\"uri\",\"value\":\"http://x/a\"},\"y\":{\"type\":\"uri\",\"value\":\"http://x/c\"}},{\"x\":{\"type\":\"uri\",\"value\":\"http://x/b\"},\"y\":{\"type\":\"uri\",\"value\":\"http://x/c\"}}]}}"},
	{"stream",
		"query=SELECT+%3Fx+%3Fy+WHERE+%7B%0A++%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%3Fy+.%0A%7D&stream=1",
		"application/x-sofya-rows+jsonl",
		"{\"head\":{\"vars\":[\"x\",\"y\"]}}\n{\"rows\":[[{\"type\":\"uri\",\"value\":\"http://x/a\"},{\"type\":\"uri\",\"value\":\"http://x/b\"}],[{\"type\":\"uri\",\"value\":\"http://x/a\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}],[{\"type\":\"uri\",\"value\":\"http://x/b\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}]]}\n{\"end\":{\"truncated\":false}}\n"},
	// The grouped pair is this commit's: a group was a line of results
	// documents at 4d057cf, and is a sequence of streams now.
	{"multi",
		"multi=1&query=SELECT+%3Fy+WHERE+%7B%0A++%3Chttp%3A%2F%2Fx%2Fa%3E+%3Chttp%3A%2F%2Fx%2Fname%3E+%3Fy+.%0A%7D&query=SELECT+%3Fy+WHERE+%7B%0A++%3Chttp%3A%2F%2Fx%2Fb%3E+%3Chttp%3A%2F%2Fx%2Fyear%3E+%3Fy+.%0A%7D&stream=1",
		"application/x-sofya-rows+jsonl; sets=2",
		"{\"head\":{\"vars\":[\"y\"]}}\n{\"rows\":[[{\"type\":\"literal\",\"value\":\"Ay\",\"xml:lang\":\"en\"}]]}\n{\"end\":{\"truncated\":false}}\n{\"head\":{\"vars\":[\"y\"]}}\n{\"rows\":[[{\"type\":\"literal\",\"value\":\"1999\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#gYear\"}]]}\n{\"end\":{\"truncated\":false}}\n"},
	{"RAND stream",
		"query=SELECT+%3Fx+%3Fy+WHERE+%7B%0A++%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%3Fy+.%0A%7D%0AORDER+BY+ASC%28RAND%28%29%29%0ALIMIT+2&stream=1",
		"application/x-sofya-rows+jsonl",
		"{\"head\":{\"vars\":[\"x\",\"y\"]}}\n{\"rows\":[[{\"type\":\"uri\",\"value\":\"http://x/b\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}],[{\"type\":\"uri\",\"value\":\"http://x/a\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}]]}\n{\"end\":{\"truncated\":false}}\n"},
	{"parse error",
		"query=SELECT+%3Fx+WHERE+%7B+%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%7D",
		"text/plain; charset=utf-8",
		"sparql: near position 34: unexpected token \"}\" in triple pattern\n"},
}

// keyedStreamFixture is the exchange wireGolden held between "stream" and
// "multi" until PR 23: what a client and a server built before it say to
// each other for an ordered fan-out, with the orderspec field and the
// "keys" and "keyvals" members this build neither writes nor reads
// (TestWireKeyedStreamCompat).
var keyedStreamFixture = wireExchange{"keyed stream",
	"orderspec=SELECT+%3Fx+%3Fy+WHERE+%7B+%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%3Fy+%7D+ORDER+BY+DESC%28%3Fy%29+LIMIT+2&query=SELECT+%3Fx+%3Fy+WHERE+%7B%0A++%3Fx+%3Chttp%3A%2F%2Fx%2Fp%3E+%3Fy+.%0A%7D&stream=1",
	"application/x-sofya-rows+jsonl",
	"{\"head\":{\"vars\":[\"x\",\"y\"],\"keys\":[0]}}\n{\"rows\":[[{\"type\":\"uri\",\"value\":\"http://x/a\"},{\"type\":\"uri\",\"value\":\"http://x/b\"}],[{\"type\":\"uri\",\"value\":\"http://x/a\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}],[{\"type\":\"uri\",\"value\":\"http://x/b\"},{\"type\":\"uri\",\"value\":\"http://x/c\"}]],\"keyvals\":[[{\"k\":\"t\",\"t\":{\"type\":\"uri\",\"value\":\"http://x/b\"}}],[{\"k\":\"t\",\"t\":{\"type\":\"uri\",\"value\":\"http://x/c\"}}],[{\"k\":\"t\",\"t\":{\"type\":\"uri\",\"value\":\"http://x/c\"}}]]}\n{\"end\":{\"truncated\":false}}\n"}

// TestWireGolden: the bytes on the wire are the protocol, and they have
// not moved — requests, answers and media types, the RAND() draws of a
// streamed sample and the text of a parse error included.
func TestWireGolden(t *testing.T) {
	got := wireExchanges(t)
	if len(got) != len(wireGolden) {
		t.Fatalf("%d exchanges, want %d", len(got), len(wireGolden))
	}
	for i, want := range wireGolden {
		if got[i] != want {
			t.Errorf("%s:\n got %q\nwant %q", want.name, got[i], want)
		}
	}
}
