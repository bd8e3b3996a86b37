package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// wire_test.go covers the batch-framed stream protocol: frame
// granularity (one flush per batch — the round-trip budget), truncation,
// fallbacks, and what is left of the keyed-stream extension: being
// ignored.

// flushCountingWriter wraps a ResponseWriter and counts Flush calls —
// each flush is one wire write the client pays one network read for,
// so flushes bound the protocol's round trips.
type flushCountingWriter struct {
	http.ResponseWriter
	mu      *sync.Mutex
	flushes *int
}

func (w *flushCountingWriter) Flush() {
	w.mu.Lock()
	*w.flushes++
	w.mu.Unlock()
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestWireBatchRoundTrips is the acceptance check for the framing
// budget: streaming R rows costs one flush per full 64-row batch — the
// head rides with the first, a partial last batch and the end with the
// handler's return — never one per row or per frame.
func TestWireBatchRoundTrips(t *testing.T) {
	const rows = 256
	local := NewLocal(bigKB(rows), 1)
	inner := NewServer(local)
	var mu sync.Mutex
	flushes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&flushCountingWriter{ResponseWriter: w, mu: &mu, flushes: &flushes}, r)
	}))
	defer srv.Close()
	client := NewClient("wire", srv.URL, nil)

	pq, err := client.Prepare("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for stream.Next() {
		n++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	stream.Close()
	if n != rows {
		t.Fatalf("streamed %d rows, want %d", n, rows)
	}

	mu.Lock()
	got := flushes
	mu.Unlock()
	windows := (rows + WireBatch - 1) / WireBatch
	if got > windows+1 {
		t.Fatalf("%d flushes for %d rows — more than one per %d-row batch window (%d) and one to spare", got, rows, WireBatch, windows)
	}
	if got < windows {
		t.Fatalf("only %d flushes for %d batch windows — batches are not being flushed individually", got, windows)
	}
}

// TestWireSmallResultSingleWrite: an answer shorter than one batch is
// never flushed — head, rows and end leave together when the handler
// returns — and so arrives with a Content-Length instead of chunked.
func TestWireSmallResultSingleWrite(t *testing.T) {
	const rows = WireBatch - 1
	inner := NewServer(NewLocal(bigKB(rows), 1))
	flushes := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(&countOnlyWriter{ResponseWriter: w, flushes: &flushes}, r)
	}))
	defer srv.Close()
	resp, err := http.PostForm(srv.URL, url.Values{
		"query":  {"SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"},
		"stream": {"1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if flushes != 0 {
		t.Fatalf("%d flushes for a %d-row answer, want none", flushes, rows)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte answer", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	got, err := decodeStream(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.rows) != rows || got.err != nil {
		t.Fatalf("%d rows, error %v; want %d", len(got.rows), got.err, rows)
	}
}

// TestWireStreamReusesConnection: a stream drained to its terminal
// frame hands its connection back to the pool — the client reads the
// chunked body's trailer before closing it — so sequential streams dial
// once. A stream closed midway may cost its connection.
func TestWireStreamReusesConnection(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewLocal(bigKB(3*WireBatch+5), 1)))
	defer srv.Close()
	pq, err := NewClient("wire", srv.URL, nil).Prepare("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	dialed := 0
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if !info.Reused {
				dialed++
			}
		},
	})
	pull := func(limit int) {
		t.Helper()
		stream, err := pq.Stream(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < limit && stream.Next(); n++ {
		}
		if err := stream.Err(); err != nil {
			t.Fatal(err)
		}
		stream.Close()
	}
	for i := 0; i < 8; i++ {
		pull(1 << 20)
	}
	if dialed != 1 {
		t.Fatalf("8 sequential drained streams dialed %d connections, want 1", dialed)
	}
	pull(WireBatch + 1) // closed inside the second batch
	pull(1 << 20)
	if dialed > 2 {
		t.Fatalf("one early close cost %d new connections, want at most 1", dialed-1)
	}
}

// TestWireStreamMatchesLocal: the framed stream must be byte-identical
// to the in-process stream, truncation flag included.
func TestWireStreamMatchesLocal(t *testing.T) {
	k := bigKB(100)
	const seed = 3
	remote := NewLocal(k, seed)
	srv := httptest.NewServer(NewServer(remote))
	defer srv.Close()
	client := NewClient("wire", srv.URL, nil)
	local := NewLocal(k, seed)

	const tmpl = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY RAND() LIMIT $n"
	cq, err := client.Prepare(tmpl, "n")
	if err != nil {
		t.Fatal(err)
	}
	lq, err := local.Prepare(tmpl, "n")
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{0, 7, 100} {
		cs, err := cq.Stream(context.Background(), sparql.IntArg(limit))
		if err != nil {
			t.Fatal(err)
		}
		ls, err := lq.Stream(context.Background(), sparql.IntArg(limit))
		if err != nil {
			t.Fatal(err)
		}
		for ls.Next() {
			if !cs.Next() {
				t.Fatalf("limit %d: wire stream ended early", limit)
			}
			lr, cr := ls.Row(), cs.Row()
			for i := range lr {
				if lr[i] != cr[i] {
					t.Fatalf("limit %d: row differs over the wire: %v vs %v", limit, cr, lr)
				}
			}
		}
		if cs.Next() {
			t.Fatalf("limit %d: wire stream has extra rows", limit)
		}
		if ls.Err() != nil || cs.Err() != nil {
			t.Fatalf("limit %d: errs %v / %v", limit, ls.Err(), cs.Err())
		}
		if ls.Truncated() != cs.Truncated() {
			t.Fatalf("limit %d: truncation flag diverges", limit)
		}
		ls.Close()
		cs.Close()
	}
}

// TestWireTruncationPropagates: a row-capped server marks the end frame
// and the client surfaces Truncated.
func TestWireTruncationPropagates(t *testing.T) {
	remote := NewLocalRestricted(bigKB(50), 1, Quota{MaxRows: 10})
	srv := httptest.NewServer(NewServer(remote))
	defer srv.Close()
	client := NewClient("wire", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	n := 0
	for stream.Next() {
		n++
	}
	if err := stream.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("row-capped stream yielded %d rows, want 10", n)
	}
	if !stream.Truncated() {
		t.Fatal("truncation flag lost across the wire")
	}
}

// TestWireKeyedStreamCompat: builds before PR 23 spoke a keyed-stream
// extension this one does not. Their frames decode to the same rows with
// the "keys" and "keyvals" members ignored, and their request — the
// orderspec field is one more unknown form key — gets the plain stream's
// bytes.
func TestWireKeyedStreamCompat(t *testing.T) {
	plain := wireGolden[1]
	got, err := decodeStream([]byte(keyedStreamFixture.answer))
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeStream([]byte(plain.answer))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStream(got, want); err != nil || len(got.rows) != 3 {
		t.Fatalf("an old server's keyed frames read as %d rows: %v", len(got.rows), err)
	}
	for _, request := range []string{keyedStreamFixture.request, "orderspec=NOT+SPARQL+AT+ALL&" + plain.request} {
		req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(request))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		NewServer(NewLocal(testKB(), 1)).ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != plain.contentType || rec.Body.String() != plain.answer {
			t.Errorf("an old client's %q answered %d %s\n%s\nwant the plain stream\n%s", request, rec.Code, rec.Header().Get("Content-Type"), rec.Body, plain.answer)
		}
	}
}

// TestWirePlainResultsFallback: a server that answers a stream request
// with a plain JSON document (an older build) is drained and replayed.
func TestWirePlainResultsFallback(t *testing.T) {
	local := NewLocal(testKB(), 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Ignore the stream flag: answer like a pre-streaming server.
		res, err := local.SelectCtx(context.Background(), r.FormValue("query"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, _ := MarshalSelect(res)
		w.Header().Set("Content-Type", ResultsContentType)
		w.Write(body)
	}))
	defer srv.Close()
	client := NewClient("old", srv.URL, nil)
	pq, err := client.Prepare("SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
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
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fallback stream yielded %d rows, want 3", n)
	}
}

// TestWireRowsBufferReuse: a stream reads into a buffer it borrows from
// a pool and gives back when it finishes — drained, closed early or cut
// off — so the next stream overwrites it. Nothing a stream handed out
// may change when that happens: every goroutine here keeps the rows of
// its finished streams, while its own and the others' next streams
// reuse their buffers, and compares them at the end. Run with -race.
func TestWireRowsBufferReuse(t *testing.T) {
	const all = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }"
	local := NewLocal(bigKB(300), 5)
	want, err := local.SelectCtx(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(local)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.FormValue("query"), "LIMIT 299") {
			h.ServeHTTP(w, r)
			return
		}
		// This one loses its connection after the first row.
		w.Header().Set("Content-Type", StreamContentType)
		io.WriteString(w, `{"head":{"vars":["s","o"]}}`+"\n"+
			`{"rows":[[{"type":"uri","value":"http://x/s0000"},{"type":"uri","value":"http://x/o0000"}]]}`+"\n")
		w.(http.Flusher).Flush()
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	defer srv.Close()
	pq, err := NewClient("reuse", srv.URL, nil).Prepare(all+" LIMIT $n", "n")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var kept [][]rdf.Term // row i of a stream is want.Rows[i]
			var at []int
			for i := 0; i < 24; i++ {
				limit, pull := 1+(37*g+13*i)%298, 1<<30
				switch i % 3 {
				case 1:
					pull = 1 + limit/2 // closed early
				case 2:
					limit = 299 // cut
				}
				rows, err := pq.Stream(context.Background(), sparql.IntArg(limit))
				if err != nil {
					t.Errorf("stream %d.%d: %v", g, i, err)
					return
				}
				n := 0
				for n < pull && rows.Next() {
					kept, at = append(kept, rows.Row()), append(at, n)
					n++
				}
				rows.Close()
				switch err := rows.Err(); {
				case i%3 == 2:
					if n != 1 || err == nil || !strings.Contains(err.Error(), "cut mid-flight") {
						t.Errorf("cut stream %d.%d: %d rows, %v", g, i, n, err)
					}
				case err != nil || n != min(limit, pull):
					t.Errorf("stream %d.%d: %d rows of %d, %v", g, i, n, min(limit, pull), err)
				}
				if rows.Row() != nil || rows.Next() {
					t.Errorf("stream %d.%d: a row after Close", g, i)
				}
			}
			for j, row := range kept {
				if !reflect.DeepEqual(row, want.Rows[at[j]]) {
					t.Errorf("goroutine %d: kept row %d is now %v, was %v", g, j, row, want.Rows[at[j]])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWireGroupOfShortSetsStaysPooled: a group of sets each shorter than
// a batch, together far past maxPooledFrameBufs, reads back as its texts
// answer one by one, and the server's encode buffer goes back to
// frameBufs: the short sets leave in writes of about half the pooled
// size instead of piling up until the handler returns.
func TestWireGroupOfShortSetsStaysPooled(t *testing.T) {
	k := kb.New("wide")
	for i := 0; i < maxMultiQueries; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/s%02d", i))
		for j := 0; j < WireBatch-1; j++ {
			k.Add(rdf.NewTriple(s, rdf.NewIRI("http://x/name"),
				rdf.NewLiteral(fmt.Sprintf("subject %02d, a name long enough to fill frames, %03d", i, j))))
		}
	}
	const tmpl = "SELECT ?v WHERE { $x <http://x/name> ?v }"
	tm := sparql.MustParseTemplate(tmpl, "x")
	argSets := make([][]sparql.Arg, maxMultiQueries)
	texts := make([]string, len(argSets))
	for i := range argSets {
		argSets[i] = []sparql.Arg{sparql.IRIArg(fmt.Sprintf("http://x/s%02d", i))}
		texts[i], _ = tm.Text(argSets[i]...)
	}

	srv := httptest.NewServer(NewServer(NewLocal(k, 1)))
	defer srv.Close()
	pq, err := NewClient("wide", srv.URL, srv.Client()).Prepare(tmpl, "x")
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectBatch(context.Background(), pq, argSets)
	if err != nil {
		t.Fatal(err)
	}
	single := NewLocal(k, 1)
	for i, text := range texts {
		want, err := single.SelectCtx(context.Background(), text)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != WireBatch-1 || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("text %d: group answered\n%s\nsingle probe\n%s", i, renderRes(got[i]), renderRes(want))
		}
	}

	// The same group straight into a recorder: empty the pool first, so
	// the buffer the answer leaves there is the one it was encoded in.
	for n := 0; n < 1000 && cap(*frameBufs.Get().(*[]byte)) > 0; n++ {
	}
	local, rec := NewLocal(k, 1), httptest.NewRecorder()
	writeSets(rec, StreamContentType, len(texts), func(i int) (Rows, error) {
		p, err := local.Prepare(texts[i])
		if err != nil {
			return nil, err
		}
		return StreamBorrowed(context.Background(), p)
	})
	if n := rec.Body.Len(); n <= 2*maxPooledFrameBufs || rec.Header().Get("Content-Length") != "" {
		t.Fatalf("a %d-byte answer with Content-Length %q; want a chunked answer past %d bytes",
			n, rec.Header().Get("Content-Length"), 2*maxPooledFrameBufs)
	}
	if raceEnabled {
		return // the race detector drops pooled items at random
	}
	if c := cap(*frameBufs.Get().(*[]byte)); c == 0 || c > maxPooledFrameBufs {
		t.Fatalf("the pool gave back a %d-byte buffer; want the answer's, at most %d", c, maxPooledFrameBufs)
	}
}
