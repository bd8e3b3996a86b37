package endpoint

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"sofya/internal/rdf"
)

// intern_test.go holds the decoder's intern table (codec.go) and the
// pooled bodies of both sides of the wire (http.go) to what they must
// not change: every decoded value is its own, whatever happens to the
// bytes it was read from, and no declared length is believed past the
// pool's cap.

// internFrame is a head line and a rows frame of plain and escaped
// values, and the terms the frame stands for.
func internFrame() (head, line []byte, want []rdf.Term) {
	want = []rdf.Term{
		rdf.NewIRI("http://x/plain"), rdf.NewLangLiteral(`café "quoted"`, "fr"),
		rdf.NewTypedLiteral("1999", rdf.XSDGYear), rdf.NewBlank("b0"),
		rdf.NewIRI("http://x/" + strings.Repeat("long", maxInternLen/4)), rdf.NewLiteral("tab\there"),
	}
	s := &stream{vars: []string{"s", "o"}, rows: [][]rdf.Term{want[0:2], want[2:4], want[4:6]}}
	body, _ := encodeStream(s)
	lines := strings.SplitAfter(string(body), "\n")
	return []byte(strings.TrimSuffix(lines[0], "\n")), []byte(strings.TrimSuffix(lines[1], "\n")), want
}

func decodeFrame(t testing.TB, d *jsonDec, line []byte) []rdf.Term {
	t.Helper()
	var f frame
	if err := d.frame(line, &f, 2, nil); err != nil {
		t.Fatal(err)
	}
	return f.terms
}

func TestInternedStringsAreCopies(t *testing.T) {
	head, line, want := internFrame()
	var d jsonDec
	var f frame
	if err := d.frame(head, &f, -1, nil); err != nil || len(f.vars) != 2 {
		t.Fatalf("head: %v, %v", f.vars, err)
	}
	vars := f.vars
	got := decodeFrame(t, &d, line)
	for i := range head {
		head[i] = 'X'
	}
	for i := range line {
		line[i] = 'X'
	}
	for i := range d.scratch[:cap(d.scratch)] {
		d.scratch[:cap(d.scratch)][i] = 'X'
	}
	if vars[0] != "s" || vars[1] != "o" {
		t.Fatalf("vars %q after the head line was overwritten", vars)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("term %d is %+v after the line was overwritten, want %+v", i, got[i], want[i])
		}
	}

	// Decoded twice, a value is one string; one longer than maxInternLen
	// is a copy each time.
	_, line, _ = internFrame()
	again := decodeFrame(t, &jsonDec{}, line)
	for i := range want {
		shared := unsafe.StringData(again[i].Value) == unsafe.StringData(got[i].Value)
		if long := len(want[i].Value) > maxInternLen; shared == long {
			t.Errorf("term %d (%d bytes): shared %v", i, len(want[i].Value), shared)
		}
	}
	if unsafe.StringData(again[1].Lang) != unsafe.StringData(got[1].Lang) ||
		unsafe.StringData(again[2].Datatype) != unsafe.StringData(got[2].Datatype) {
		t.Error("a language or a datatype decoded twice is two strings")
	}

	// Past maxInterned entries the table starts over and still answers.
	for i := 0; i <= maxInterned; i++ {
		if s := intern(fmt.Appendf(nil, "http://x/distinct/%d", i)); s != fmt.Sprintf("http://x/distinct/%d", i) {
			t.Fatalf("intern %d: %q", i, s)
		}
	}
	n := 0
	for i := range internTable {
		internTable[i].Lock()
		if l := len(internTable[i].m); l > maxInterned/internShards {
			t.Errorf("shard %d holds %d entries, cap %d", i, l, maxInterned/internShards)
		}
		n += len(internTable[i].m)
		internTable[i].Unlock()
	}
	if n > maxInterned {
		t.Fatalf("%d entries, cap %d", n, maxInterned)
	}
	_, line, _ = internFrame()
	for i, term := range decodeFrame(t, &d, line) {
		if term != want[i] {
			t.Fatalf("after the table was cleared, term %d is %+v, want %+v", i, term, want[i])
		}
	}
}

// TestInternConcurrent: which copy of a string a decode gets is decided
// between goroutines; what it reads never is.
func TestInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d jsonDec
			for it := 0; it < 40; it++ {
				s := &stream{vars: []string{"s", "o"}}
				for r := 0; r < WireBatch; r++ {
					s.rows = append(s.rows, []rdf.Term{
						rdf.NewIRI(fmt.Sprintf("http://x/shared/%d", (g*8+r)%96)),
						rdf.NewLiteral(fmt.Sprintf("own %d/%d/%d", g, it, r)),
					})
				}
				body, _ := encodeStream(s)
				line := []byte(strings.SplitAfter(string(body), "\n")[1])
				var f frame
				if err := d.frame(line[:len(line)-1], &f, 2, nil); err != nil {
					t.Error(err)
					return
				}
				for i := range line {
					line[i] = 0
				}
				for r, row := range s.rows {
					if f.terms[2*r] != row[0] || f.terms[2*r+1] != row[1] {
						t.Errorf("row %d: %+v, want %+v", r, f.terms[2*r:2*r+2], row)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestExtractQueryPooledBody: a request body read into a pooled buffer
// leaves nothing pointing into it, whatever the next request writes
// there, and one longer than the pool takes is read whole and not
// pooled.
func TestExtractQueryPooledBody(t *testing.T) {
	extract := func(contentType, body string) *wireReq {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		req, err := extractQuery(httptest.NewRecorder(), r)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	const form = "application/x-www-form-urlencoded"
	q1, q2 := "SELECT ?x WHERE { ?x <http://x/a> ?y }", "SELECT ?z WHERE { ?z <http://x/b> ?w }"
	first := extract(form, "multi=1&query="+url.QueryEscape(q1)+"&query=ASK%7B%7D&stream=1")
	second := extract(form, "multi=1&query="+url.QueryEscape(q2)+"&query=ASK%7B%7D&stream=0")
	raw := extract("application/sparql-query", q1)
	extract("application/sparql-query", q2)
	if first.query != q1 || len(first.multi) != 2 || first.multi[0] != q1 || first.multi[1] != "ASK{}" || !first.stream {
		t.Fatalf("first request after the second: %+v", first)
	}
	if second.query != q2 || second.stream || raw.query != q1 {
		t.Fatalf("second request %+v, raw %q", second, raw.query)
	}

	for _, n := range []int{6 << 10, 100 << 10} {
		text := "SELECT ?x WHERE { ?x ?p \"" + strings.Repeat("a", n) + "\" }"
		if got := extract(form, "query="+url.QueryEscape(text)).query; got != text {
			t.Fatalf("%d-byte query read back as %d bytes", len(text), len(got))
		}
		var held []*[]byte
		for i := 0; i < 8; i++ {
			p := readBufs.Get().(*[]byte)
			if len(*p) > maxPooledFrameBufs {
				t.Fatalf("after a %d-byte body the pool holds a buffer of %d", n, len(*p))
			}
			held = append(held, p)
		}
		for _, p := range held {
			readBufs.Put(p)
		}
	}
}

// hostileLength answers every request with a status, a media type and a
// declared length of 64 MiB, and then sends ten bytes.
type hostileLength struct {
	status      int
	contentType string
}

func (h hostileLength) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	return &http.Response{
		StatusCode:    h.status,
		Header:        http.Header{"Content-Type": {h.contentType}},
		ContentLength: 64 << 20,
		Body:          io.NopCloser(strings.NewReader(`{"head":{}`)),
		Request:       r,
	}, nil
}

// TestClientDisbelievesDeclaredLength: a response's declared length is
// believed only up to the pool's cap, so a length the body does not
// keep costs what arrived, not what was declared.
func TestClientDisbelievesDeclaredLength(t *testing.T) {
	const text = "SELECT ?x WHERE { ?x ?p ?o }"
	for _, h := range []hostileLength{
		{http.StatusOK, ResultsContentType},
		{http.StatusInternalServerError, "text/plain"},
		{http.StatusOK, StreamContentType},
	} {
		c := NewClient("hostile", "http://hostile.invalid/sparql", &http.Client{Transport: h})
		pq, err := c.Prepare(text)
		if err != nil {
			t.Fatal(err)
		}
		var callErr error
		bytes := allocated(func() {
			if h.contentType == StreamContentType {
				_, callErr = pq.Stream(context.Background())
			} else {
				_, callErr = c.SelectCtx(context.Background(), text)
			}
		})
		if callErr == nil {
			t.Errorf("%d %s: a 10-byte answer declared as 64 MiB was accepted", h.status, h.contentType)
		}
		if bytes >= 1<<20 {
			t.Errorf("%d %s: %d bytes allocated for a 10-byte answer", h.status, h.contentType, bytes)
		}
	}
}
