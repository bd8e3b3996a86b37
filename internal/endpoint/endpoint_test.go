package endpoint

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

func testKB() *kb.KB {
	k := kb.New("test")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/c")
	k.AddIRIs("http://x/b", "http://x/p", "http://x/c")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/name"), rdf.NewLangLiteral("Ay", "en")))
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/b"), rdf.NewIRI("http://x/year"), rdf.NewTypedLiteral("1999", rdf.XSDGYear)))
	return k
}

func TestLocalSelectAndAsk(t *testing.T) {
	ep := NewLocal(testKB(), 1)
	res, err := ep.SelectCtx(context.Background(), `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	ok, err := ep.AskCtx(context.Background(), `ASK { <http://x/a> <http://x/p> <http://x/b> }`)
	if err != nil || !ok {
		t.Fatalf("ask = %v, %v", ok, err)
	}
	st := ep.Stats()
	if st.Queries != 2 || st.Rows != 3 {
		t.Fatalf("stats = %+v", st)
	}
	ep.ResetStats()
	if ep.Stats().Queries != 0 {
		t.Fatal("ResetStats did not clear")
	}
}

func TestLocalFormMismatch(t *testing.T) {
	ep := NewLocal(testKB(), 1)
	if _, err := ep.SelectCtx(context.Background(), `ASK { ?x <http://x/p> ?y }`); err == nil {
		t.Fatal("Select accepted an ASK query")
	}
	if _, err := ep.AskCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`); err == nil {
		t.Fatal("Ask accepted a SELECT query")
	}
}

func TestLocalParseErrorPropagates(t *testing.T) {
	ep := NewLocal(testKB(), 1)
	if _, err := ep.SelectCtx(context.Background(), `SELEC ?x`); err == nil {
		t.Fatal("want parse error")
	}
}

func TestQuotaMaxQueries(t *testing.T) {
	ep := NewLocalRestricted(testKB(), 1, Quota{MaxQueries: 2})
	for i := 0; i < 2; i++ {
		if _, err := ep.SelectCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`); err != nil {
			t.Fatalf("query %d failed: %v", i, err)
		}
	}
	_, err := ep.SelectCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	if ep.Stats().Denied != 1 {
		t.Fatalf("stats = %+v", ep.Stats())
	}
}

func TestQuotaMaxRowsTruncates(t *testing.T) {
	ep := NewLocalRestricted(testKB(), 1, Quota{MaxRows: 2})
	res, err := ep.SelectCtx(context.Background(), `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || !res.Truncated {
		t.Fatalf("rows=%d truncated=%v", len(res.Rows), res.Truncated)
	}
	if ep.Stats().Truncations != 1 {
		t.Fatalf("stats = %+v", ep.Stats())
	}
}

func TestMarshalUnmarshalSelectRoundTrip(t *testing.T) {
	res := &sparql.Result{
		Vars: []string{"x", "n"},
		Rows: [][]rdf.Term{
			{rdf.NewIRI("http://x/a"), rdf.NewLangLiteral("Ay", "en")},
			{rdf.NewBlank("b0"), rdf.NewTypedLiteral("1999", rdf.XSDGYear)},
			{rdf.NewIRI("http://x/b"), rdf.NewLiteral("plain")},
		},
		Truncated: true,
	}
	data, err := MarshalSelect(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalResults(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Truncated {
		t.Fatal("Truncated flag lost")
	}
	if len(back.Rows) != 3 {
		t.Fatalf("rows = %d", len(back.Rows))
	}
	for i := range res.Rows {
		for j := range res.Vars {
			if back.Rows[i][j] != res.Rows[i][j] {
				t.Fatalf("row %d col %d: %v != %v", i, j, back.Rows[i][j], res.Rows[i][j])
			}
		}
	}
}

func TestUnmarshalAsk(t *testing.T) {
	data, err := MarshalAsk(true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := UnmarshalResults(data)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ask {
		t.Fatal("Ask lost")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalResults([]byte(`{bad json`)); err == nil {
		t.Fatal("want JSON error")
	}
	// unknown term type
	doc := `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"martian","value":"v"}}]}}`
	if _, err := UnmarshalResults([]byte(doc)); err == nil {
		t.Fatal("want term type error")
	}
	// missing variable in binding
	doc = `{"head":{"vars":["x"]},"results":{"bindings":[{"y":{"type":"uri","value":"v"}}]}}`
	if _, err := UnmarshalResults([]byte(doc)); err == nil {
		t.Fatal("want missing-var error")
	}
}

func TestHTTPServerClientRoundTrip(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	c := NewClient("test", srv.URL, srv.Client())
	if c.Name() != "test" {
		t.Fatal("client name")
	}

	res, err := c.SelectCtx(context.Background(), `SELECT ?x ?y WHERE { ?x <http://x/p> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// literals survive the wire
	res, err = c.SelectCtx(context.Background(), `SELECT ?n WHERE { <http://x/a> <http://x/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != rdf.NewLangLiteral("Ay", "en") {
		t.Fatalf("literal = %v", res.Rows[0][0])
	}
	ok, err := c.AskCtx(context.Background(), `ASK { <http://x/a> <http://x/p> <http://x/b> }`)
	if err != nil || !ok {
		t.Fatalf("ask = %v, %v", ok, err)
	}
}

func TestHTTPServerGet(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?query=" + strings.ReplaceAll(
		`SELECT ?x WHERE { ?x <http://x/p> ?y }`, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ResultsContentType {
		t.Fatalf("content type = %q", ct)
	}
}

func TestHTTPServerRawBody(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL, "application/sparql-query",
		strings.NewReader(`ASK { <http://x/a> <http://x/p> <http://x/b> }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPServerErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(testKB(), 1)))
	defer srv.Close()

	// missing query
	resp, _ := srv.Client().Get(srv.URL)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing query: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// parse error
	resp, _ = srv.Client().PostForm(srv.URL, map[string][]string{"query": {"SELEC bad"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error: status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// bad method
	req, _ := http.NewRequest(http.MethodDelete, srv.URL, nil)
	resp, _ = srv.Client().Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("bad method: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPQuotaSurfacesAsTooManyRequests(t *testing.T) {
	local := NewLocalRestricted(testKB(), 1, Quota{MaxQueries: 1})
	srv := httptest.NewServer(NewServer(local))
	defer srv.Close()
	c := NewClient("test", srv.URL, srv.Client())
	if _, err := c.SelectCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`); err != nil {
		t.Fatal(err)
	}
	_, err := c.SelectCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded over HTTP, got %v", err)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("dead", "http://127.0.0.1:1/sparql", nil)
	if _, err := c.SelectCtx(context.Background(), `SELECT ?x WHERE { ?x <http://x/p> ?y }`); err == nil {
		t.Fatal("want connection error")
	}
}
