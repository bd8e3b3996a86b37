package endpoint

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sofya/internal/sparql"
)

// ResultsContentType is the media type of the SPARQL results JSON format.
const ResultsContentType = "application/sparql-results+json"

// Server exposes an endpoint over the SPARQL 1.1 protocol:
// GET  /sparql?query=...          (query in the URL)
// POST /sparql with form field "query" or a raw application/sparql-query
// body.
//
// A request carrying stream=1 selects the batch-framed streaming
// response for SELECT queries (see wire.go): rows cross the wire in
// flushed frames of up to WireBatch rows instead of one drained JSON
// document. A request carrying multi=1 holds several SELECT texts,
// answered in one response (see multi.go); a stream is the group of one
// text, answered by the same loop (serveFramed).
type Server struct {
	local Endpoint
}

// NewServer wraps a Local endpoint for HTTP serving.
func NewServer(local *Local) *Server { return &Server{local: local} }

// NewServerEndpoint wraps any Endpoint — a sharded federation group, a
// decorated stack — for HTTP serving.
func NewServerEndpoint(ep Endpoint) *Server { return &Server{local: ep} }

// wireReq is one parsed protocol request.
type wireReq struct {
	query  string
	stream bool
	multi  []string // every query text of a multi=1 request, query first
}

// ServeHTTP implements http.Handler. The query text is parsed once, by
// the endpoint that executes it: the handler only looks at the leading
// keyword to tell ASK from SELECT, and a text that does not parse comes
// back from the endpoint as the parser's error, answered 400.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, fmt.Sprintf("endpoint: method %s not allowed", r.Method), http.StatusMethodNotAllowed)
		return
	}
	req, err := extractQuery(w, r)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	form := sparql.FormOf(req.query)
	if req.multi != nil || req.stream && form == sparql.SelectForm {
		s.serveFramed(w, r, req)
		return
	}
	var body []byte
	if form == sparql.AskForm {
		ok, err := s.local.AskCtx(r.Context(), req.query)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		body, _ = MarshalAsk(ok)
	} else {
		res, err := s.local.SelectCtx(r.Context(), req.query)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		body, _ = MarshalSelect(res)
	}
	w.Header().Set("Content-Type", ResultsContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// OverloadedHeader marks a 429 as a load shed rather than a quota
// rejection: the server was saturated when this request arrived, and a
// retry — ideally on another replica — may succeed. Clients map a 429
// carrying it to ErrOverloaded (retriable) instead of ErrQuotaExceeded
// (terminal).
const OverloadedHeader = "X-Sofya-Overloaded"

func writeQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrOverloaded) {
		w.Header().Set(OverloadedHeader, "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if errors.Is(err, ErrQuotaExceeded) {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// tooManyErr maps a 429 answer back to the error the server meant: a
// shed (ErrOverloaded, retriable) when the overload marker — the
// header, or "overloaded" in the body of a proxy that stripped it — is
// present, the terminal ErrQuotaExceeded otherwise.
func tooManyErr(resp *http.Response, body []byte) error {
	if resp.Header.Get(OverloadedHeader) != "" || strings.Contains(string(body), "overloaded") {
		return ErrOverloaded
	}
	return ErrQuotaExceeded
}

// maxQueryBytes bounds a request body. A longer one is refused whole
// (413): its first megabyte could well parse, as another query.
const maxQueryBytes = 1 << 20

// extractQuery reads the protocol request of a GET or a POST. The body
// of a POST is read here into one buffer, and the form it usually is
// decoded in one pass (decodeForm); a form a handler in front has
// parsed, or whose media type is not spelled the way every client
// spells it, is net/http's to parse.
func extractQuery(w http.ResponseWriter, r *http.Request) (*wireReq, error) {
	r.Body = http.MaxBytesReader(w, r.Body, maxQueryBytes)
	var vals url.Values
	ct := r.Header.Get("Content-Type")
	raw := strings.HasPrefix(ct, "application/sparql-query")
	switch {
	case r.Method == http.MethodGet:
		vals = r.URL.Query()
	case raw || ct == "application/x-www-form-urlencoded" && r.PostForm == nil:
		var body []byte
		var err error
		// A declared length is believed before the bytes arrive if short.
		if n := r.ContentLength; n >= 0 && n <= 64<<10 {
			body = make([]byte, n)
			_, err = io.ReadFull(r.Body, body)
		} else {
			body, err = io.ReadAll(r.Body)
		}
		switch {
		case err != nil:
			return nil, err
		case raw:
			return &wireReq{query: string(body)}, nil
		}
		return decodeForm(string(body))
	default:
		if err := r.ParseForm(); err != nil {
			return nil, err
		}
		vals = r.PostForm
	}
	return newWireReq(vals["query"], vals.Get("stream"), vals.Get("multi"))
}

// newWireReq makes a request of a form's fields: its queries, and the
// first stream and multi.
func newWireReq(queries []string, stream, multi string) (*wireReq, error) {
	if len(queries) == 0 || queries[0] == "" {
		return nil, errors.New("endpoint: missing query parameter")
	}
	req := &wireReq{query: queries[0], stream: stream == "1"}
	if multi == "1" {
		req.multi = queries
	}
	return req, nil
}

// decodeForm reads the protocol's fields off a form body: it accepts,
// refuses and reads what url.ParseQuery and url.Values.Get would
// (FuzzFormDecode), but copies a key or a value only to unescape it.
func decodeForm(body string) (*wireReq, error) {
	queries := make([]string, 0, 1+strings.Count(body, "&query="))
	var first [2]string // stream, multi
	var seen [2]bool
	for body != "" {
		var pair string
		pair, body, _ = strings.Cut(body, "&")
		if strings.Contains(pair, ";") {
			return nil, errors.New("invalid semicolon separator in query")
		}
		key, val, _ := strings.Cut(pair, "=")
		key, kerr := url.QueryUnescape(key)
		val, verr := url.QueryUnescape(val)
		if err := cmp.Or(kerr, verr); err != nil {
			return nil, err
		}
		i := -1
		switch key {
		case "query":
			queries = append(queries, val)
		case "stream":
			i = 0
		case "multi":
			i = 1
		}
		if i >= 0 && !seen[i] {
			seen[i], first[i] = true, val
		}
	}
	return newWireReq(queries, first[0], first[1])
}

// StatusError is a non-200 answer from a remote endpoint: the HTTP
// status plus a bounded snippet of the response body, so a failure
// names its cause ("parse error at ...", a proxy's HTML error page)
// instead of a bare status code.
type StatusError struct {
	URL     string
	Code    int
	Snippet string
}

func (e *StatusError) Error() string {
	if e.Snippet == "" {
		return fmt.Sprintf("endpoint: %s: HTTP %d", e.URL, e.Code)
	}
	return fmt.Sprintf("endpoint: %s: HTTP %d: %s", e.URL, e.Code, e.Snippet)
}

// snippetLimit bounds how much of an error body travels in a
// StatusError.
const snippetLimit = 200

func bodySnippet(body []byte) string {
	s := strings.TrimSpace(string(body))
	if len(s) > snippetLimit {
		s = s[:snippetLimit] + "…"
	}
	return s
}

// Retriable reports whether an endpoint error is worth retrying on
// another replica of the same data: transport failures and 5xx answers
// are; semantic answers — quota rejections, parse errors and other 4xx,
// a caller's own context ending — are not (a replica would answer the
// same, or the caller asked to stop).
func Retriable(err error) bool {
	if err == nil {
		return false
	}
	// A shed is the one member of the quota family worth retrying: the
	// answering machine was saturated, not the query wrong — another
	// replica may have capacity. Checked before the quota test because
	// errors.Is(ErrOverloaded, ErrQuotaExceeded) holds.
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	if errors.Is(err, ErrQuotaExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	var ue *url.Error
	if errors.As(err, &ue) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF)
}

// defaultHTTPClient builds the client used when the caller passes none:
// unlike http.DefaultClient it bounds every phase that can hang — dial,
// TLS, response headers, idle pool — without a whole-request timeout,
// which would cut legitimate long streams.
func defaultHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy: http.ProxyFromEnvironment,
			DialContext: (&net.Dialer{
				Timeout:   5 * time.Second,
				KeepAlive: 30 * time.Second,
			}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   16,
		},
	}
}

// Client is an Endpoint backed by a remote SPARQL HTTP service.
type Client struct {
	name    string
	baseURL string
	httpc   *http.Client
}

// NewClient builds a client for the service at baseURL (e.g.
// "http://host:port/sparql"). If httpc is nil, a client with bounded
// dial/TLS/header timeouts (and no whole-request timeout, so streams
// can run long) is used.
func NewClient(name, baseURL string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = defaultHTTPClient()
	}
	return &Client{name: name, baseURL: baseURL, httpc: httpc}
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.name }

// appendFormField appends name=value to a form body, the value escaped
// as url.QueryEscape escapes it. Appending a request's fields in name
// order yields the bytes url.Values.Encode would.
func appendFormField(dst []byte, name, value string) []byte {
	if len(dst) > 0 {
		dst = append(dst, '&')
	}
	dst = append(dst, name...)
	dst = append(dst, '=')
	for i := 0; i < len(value); i++ {
		switch c := value[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '-', c == '_', c == '.', c == '~':
			dst = append(dst, c)
		case c == ' ':
			dst = append(dst, '+')
		default:
			dst = append(dst, '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&0xF])
		}
	}
	return dst
}

// post sends one protocol request: a text of form want, streamed
// (stream=1) or not. A text of the other form by sparql.FormOf, the
// Server's test, is refused unsent with Local's error: it would be
// answered in its own form, which reads back as no answer.
func (c *Client) post(ctx context.Context, query string, want sparql.Form, stream bool) (*http.Response, error) {
	if sparql.FormOf(query) != want {
		if want == sparql.AskForm {
			return nil, errNeedAsk
		}
		return nil, errNeedSelect
	}
	form := make([]byte, 0, 64+len(query)+len(query)/2)
	form = appendFormField(form, "query", query)
	if stream {
		form = appendFormField(form, "stream", "1")
	}
	return c.postForm(ctx, form)
}

// postForm sends an encoded form body.
func (c *Client) postForm(ctx context.Context, form []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.baseURL, bytes.NewReader(form))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return c.httpc.Do(req)
}

// maxAnswerBytes bounds a whole-result answer held in memory.
const maxAnswerBytes = 64 << 20

// readBody reads a response body of at most limit bytes (more is cut
// off, and then fails to parse), into a buffer of the declared length
// when the response has one.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= limit {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// statusErr turns a non-200 answer into the error it stands for.
func (c *Client) statusErr(resp *http.Response) error {
	body, _ := readBody(resp, 1<<20) // a partial body still makes a snippet
	if resp.StatusCode == http.StatusTooManyRequests {
		return tooManyErr(resp, body)
	}
	return &StatusError{URL: c.baseURL, Code: resp.StatusCode, Snippet: bodySnippet(body)}
}

// document reads a whole-result answer: the results document of a 200,
// or the error any other status stands for.
func (c *Client) document(resp *http.Response) (*sparql.Result, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.statusErr(resp)
	}
	body, err := readBody(resp, maxAnswerBytes)
	if err != nil {
		return nil, err
	}
	return UnmarshalResults(body)
}

func (c *Client) roundTrip(ctx context.Context, query string, want sparql.Form) (*sparql.Result, error) {
	resp, err := c.post(ctx, query, want, false)
	if err != nil {
		return nil, err
	}
	return c.document(resp)
}

// openStream requests the batch-framed stream for a SELECT text.
func (c *Client) openStream(ctx context.Context, query string) (Rows, error) {
	resp, err := c.post(ctx, query, sparql.SelectForm, true)
	if err != nil {
		return nil, err
	}
	return c.rowsOf(resp, 1)
}

// rowsOf reads the answer to a stream request: the frames of its sets
// sequences, or — from a server that answers a plain JSON document (an
// older build, a generic SPARQL endpoint) — the document, replayed.
func (c *Client) rowsOf(resp *http.Response, sets int) (Rows, error) {
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), StreamContentType) {
		res, err := c.document(resp)
		if err != nil {
			return nil, err
		}
		return ReplayRows(res), nil
	}
	return newWireRows(resp.Body, resp.ContentLength, sets)
}

// SelectCtx implements Endpoint as the one text transport: the caller's
// bytes go out as they are, in any dialect the server speaks, unless
// post refuses their form. The context cancels the HTTP exchange.
func (c *Client) SelectCtx(ctx context.Context, query string) (*sparql.Result, error) {
	return c.roundTrip(ctx, query, sparql.SelectForm)
}

// AskCtx implements Endpoint, like SelectCtx.
func (c *Client) AskCtx(ctx context.Context, query string) (bool, error) {
	res, err := c.roundTrip(ctx, query, sparql.AskForm)
	if err != nil {
		return false, err
	}
	return res.Ask, nil
}

// Prepare implements Endpoint by text interpolation: each execution
// renders the template to canonical query text and sends it over the
// wire. A Local server on the far side derives RAND() streams from
// that canonical text, so remote prepared results match in-process
// prepared results byte for byte. Streamed executions use the
// batch-framed wire protocol: rows cross the network once per frame,
// not per row.
func (c *Client) Prepare(template string, params ...string) (PreparedQuery, error) {
	t, err := sparql.ParseTemplate(template, params...)
	if err != nil {
		return nil, err
	}
	return &clientPrepared{textPrepared: textPrepared{ep: c, tmpl: t}, c: c}, nil
}

// clientPrepared is the HTTP client's PreparedQuery: text interpolation
// for whole-result calls (one request, one JSON document), the framed
// wire stream for Stream, one multi=1 request for a group of streams
// (StreamBatch, multi.go).
type clientPrepared struct {
	textPrepared
	c *Client
}

// Stream overrides the drain-then-iterate fallback with the framed wire
// stream: rows arrive in batches as the consumer pulls, and closing the
// stream aborts the remote enumeration with the request context.
func (p *clientPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	text, err := p.tmpl.Text(args...)
	if err != nil {
		return nil, err
	}
	return p.c.openStream(ctx, text)
}

var (
	_ Endpoint      = (*Client)(nil)
	_ PreparedQuery = (*clientPrepared)(nil)
)
