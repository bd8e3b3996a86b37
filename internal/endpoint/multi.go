package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"sofya/internal/sparql"
)

// multi.go is the grouped side of the SPARQL HTTP protocol. An
// alignment stage holds many small independent probes at once, and what
// a remote deployment pays for each is a round trip, so a group of them
// crosses the wire as one request:
//
//	POST /sparql   multi=1&query=<text 1>&query=<text 2>&…
//
//	→ 200 Content-Type: application/x-sofya-results+jsonl
//	  <SPARQL results JSON document of text 1>\n
//	  <SPARQL results JSON document of text 2>\n
//	  …
//
// The server runs the texts in order through the endpoint it serves,
// one SelectCtx each — quota, statistics and admission see single
// queries, exactly those a client sending the texts one by one would
// have caused — and answers every document in one body with a
// Content-Length. The first text that fails answers for the request,
// with the status its own request would have had; texts after it do not
// run. Every text must be a SELECT and there are at most
// maxMultiQueries of them (400 otherwise, before anything runs); stream
// and orderspec mean nothing on a multi request and are not read.
//
// The request is also a plain protocol request for its first text:
// a server that knows nothing of multi — any endpoint that is not
// sparqld — reads one query field, the first, and answers one plain
// results document. The client tells the two answers apart by media
// type, keeps a plain one as the result of the first text, and sends
// the others singly, so no query runs twice and none is lost.

// MultiContentType is the media type of a multi=1 answer: one SPARQL
// results JSON document per line, in request order.
const MultiContentType = "application/x-sofya-results+jsonl"

// maxMultiQueries bounds the texts of one multi=1 request. The client
// splits a longer group — and one whose encoded texts would pass
// maxQueryBytes — over several requests.
const maxMultiQueries = 64

// serveMulti answers a multi=1 request.
func (s *Server) serveMulti(w http.ResponseWriter, r *http.Request, req *wireReq) {
	if len(req.multi) > maxMultiQueries {
		http.Error(w, fmt.Sprintf("endpoint: %d queries in one request, at most %d", len(req.multi), maxMultiQueries), http.StatusBadRequest)
		return
	}
	for _, text := range req.multi {
		if sparql.FormOf(text) != sparql.SelectForm {
			http.Error(w, "endpoint: a multi request takes SELECT queries only", http.StatusBadRequest)
			return
		}
	}
	results := make([]*sparql.Result, len(req.multi))
	size := 0
	for i, text := range req.multi {
		res, err := s.local.SelectCtx(r.Context(), text)
		if err != nil {
			writeQueryError(w, err)
			return
		}
		results[i] = res
		size += selectSizeHint(res) + 1
	}
	body := make([]byte, 0, size)
	for _, res := range results {
		body = append(appendSelect(body, res), '\n')
	}
	w.Header().Set("Content-Type", MultiContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// SelectBatch implements BatchSelector: the tuples' canonical texts go
// out as multi=1 requests of at most maxMultiQueries texts and
// maxQueryBytes each, one after the other; a text left alone in its
// request goes as the plain request it is.
func (p *clientPrepared) SelectBatch(ctx context.Context, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	texts := make([]string, len(argSets))
	for i, args := range argSets {
		text, err := p.tmpl.Text(args...)
		if err != nil {
			return nil, err
		}
		texts[i] = text
	}
	out := make([]*sparql.Result, 0, len(texts))
	var form []byte
	for len(texts) > 0 {
		form = append(form[:0], "multi=1"...)
		n := 0
		for n < len(texts) && n < maxMultiQueries {
			mark := len(form)
			if form = appendFormField(form, "query", texts[n]); len(form) > maxQueryBytes && n > 0 {
				form = form[:mark]
				break
			}
			n++
		}
		if n == 1 {
			res, err := p.c.roundTrip(ctx, texts[0])
			if err != nil {
				return nil, err
			}
			out = append(out, res)
		} else {
			var err error
			if out, err = p.c.roundTripMulti(ctx, form, texts[:n], out); err != nil {
				return nil, err
			}
		}
		texts = texts[n:]
	}
	return out, nil
}

// roundTripMulti sends form, the encoded multi=1 request for texts, and
// appends the results to out. A plain results document in answer is the
// first text's, from a server without the extension; the others are
// then sent singly.
func (c *Client) roundTripMulti(ctx context.Context, form []byte, texts []string, out []*sparql.Result) ([]*sparql.Result, error) {
	body, ct, err := c.wholeAnswer(c.postForm(ctx, form))
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(ct, MultiContentType) {
		return appendMultiAnswer(out, body, len(texts))
	}
	first, err := UnmarshalResults(body)
	if err != nil {
		return nil, err
	}
	out = append(out, first)
	for _, text := range texts[1:] {
		res, err := c.roundTrip(ctx, text)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// appendMultiAnswer decodes a multi=1 answer of n documents, each on a
// line of its own, onto out. An answer of fewer or more documents, or
// one that ends inside a line, is an error — never a short result.
func appendMultiAnswer(out []*sparql.Result, body []byte, n int) ([]*sparql.Result, error) {
	docs := 0
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil, fmt.Errorf("endpoint: multi answer cut inside document %d: %w", docs+1, io.ErrUnexpectedEOF)
		}
		if docs == n {
			return nil, fmt.Errorf("endpoint: multi answer has more than the %d documents asked for", n)
		}
		res, err := UnmarshalResults(body[:i])
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		docs++
		body = body[i+1:]
	}
	if docs != n {
		return nil, fmt.Errorf("endpoint: multi answer has %d documents, %d asked for", docs, n)
	}
	return out, nil
}
