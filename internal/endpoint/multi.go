package endpoint

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"sofya/internal/sparql"
)

// multi.go is the grouped side of the SPARQL HTTP protocol. An
// alignment stage holds many small independent probes at once, and what
// a remote deployment pays for each is a request, so a group of them
// crosses the wire as one, answered as a sequence of streams (wire.go):
//
//	POST /sparql   multi=1&query=<text 1>&query=<text 2>&…&stream=1
//
//	→ 200 Content-Type: application/x-sofya-rows+jsonl; sets=N
//	  {"head":…}  {"rows":…} …  {"end":…}      — text 1
//	  {"head":…}  {"rows":…} …  {"end":…}      — text 2, …
//
// The server answers it through the loop that answers a single stream,
// the group of one (serveFramed, writeSets): it runs the texts in order
// through the endpoint it serves, one prepared stream each — quota,
// statistics and admission see the single queries a client sending them
// one by one would have caused — and encodes each as it drains it,
// through one buffer: it never holds more of a group than the batch it
// is encoding, and a group shorter than a batch is one write with a
// Content-Length. A text that cannot be opened, or a request found
// cancelled between two texts, answers for the request while nothing has
// left, with the status its own request would have had (a shed stays a
// retriable 429); once a batch is out it ends the answer in an error
// frame where its sequence would have begun, and the sequences before it
// stay valid. Texts after it do not run. Every text must be a SELECT and
// there are at most maxMultiQueries of them (400 otherwise, before
// anything runs).
//
// The client owns the body from the open to the last sequence's end, an
// error, or Close, and reads one sequence at a time off it through one
// buffer. A body cut inside a sequence, a sets parameter that is not the
// number of texts sent, and bytes after the last terminal frame are
// errors that name the sequence, never a short set passed off as one.
//
// The request is also a plain stream request for its first text: a
// server that streams but does not group answers one sequence without
// the sets parameter, any endpoint that is not sparqld a plain results
// document. The client keeps either as the first text's set and sends
// the others singly as the caller reaches them: no query runs twice.

// maxMultiQueries bounds the texts of one multi=1 request. The client
// continues a longer group — or one whose encoded texts would pass
// maxQueryBytes — in a further request once the first's sets are used up.
const maxMultiQueries = 64

// serveFramed answers a stream request through the one framed-answer
// loop (writeSets): a multi=1 request as its texts' sequences, a stream=1
// SELECT as the group of one it is — whose media type, alone, carries no
// sets parameter.
func (s *Server) serveFramed(w http.ResponseWriter, r *http.Request, req *wireReq) {
	texts, contentType := req.multi, StreamContentType
	if texts == nil {
		texts = []string{req.query}
	} else {
		if len(texts) > maxMultiQueries {
			http.Error(w, fmt.Sprintf("endpoint: %d queries in one request, at most %d", len(texts), maxMultiQueries), http.StatusBadRequest)
			return
		}
		for _, text := range texts {
			if sparql.FormOf(text) != sparql.SelectForm {
				http.Error(w, "endpoint: a multi request takes SELECT queries only", http.StatusBadRequest)
				return
			}
		}
		contentType += "; sets=" + strconv.Itoa(len(texts))
	}
	ctx := r.Context()
	writeSets(w, contentType, len(texts), func(i int) (Rows, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pq, err := s.local.Prepare(texts[i])
		if err != nil {
			return nil, err
		}
		return pq.Stream(ctx)
	})
}

// StreamBatch implements BatchStreamer: the tuples' canonical texts go
// out as multi=1 requests of at most maxMultiQueries texts and
// maxQueryBytes each, the next when the caller has used up the sets of
// the one before.
func (p *clientPrepared) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (RowSets, error) {
	if sparql.FormOf(p.tmpl.Source()) != sparql.SelectForm {
		return nil, errNeedSelect // as post refuses it
	}
	g := &clientGroup{ctx: ctx, c: p.c, texts: make([]string, len(argSets)), groups: true}
	for i, args := range argSets {
		text, err := p.tmpl.Text(args...)
		if err != nil {
			return nil, err
		}
		g.texts[i] = text
	}
	switch first, err := g.next(); {
	case err != nil:
		return nil, err
	case first == nil:
		return ReplaySets(nil), nil
	default:
		return NewRowSets(first, g.next, nil), nil
	}
}

// clientGroup is what is left to send of a group.
type clientGroup struct {
	ctx    context.Context
	c      *Client
	texts  []string // those no request has carried yet
	groups bool     // until the server has answered a group with one set
}

// next sends the next request — as many of the remaining texts as one
// request holds, or one to a server known not to group — and returns its
// answer: a body of that many sequences, or the first text's set.
func (g *clientGroup) next() (Rows, error) {
	if len(g.texts) == 0 {
		return nil, nil
	}
	texts := g.texts[:min(len(g.texts), maxMultiQueries)]
	if !g.groups {
		texts = texts[:1]
	}
	size := 32
	for _, text := range texts {
		size += 16 + len(text) + len(text)/2
	}
	form, n := append(make([]byte, 0, min(size, maxQueryBytes)), "multi=1"...), 0
	for ; n < len(texts); n++ {
		mark := len(form)
		if form = appendFormField(form, "query", texts[n]); len(form) > maxQueryBytes-len("&stream=1") && n > 0 {
			form = form[:mark]
			break
		}
	}
	if n == 1 {
		form = form[len("multi=1&"):] // alone, a text goes as the plain stream request it is
	}
	resp, err := g.c.postForm(g.ctx, appendFormField(form, "stream", "1"))
	if err != nil {
		return nil, err
	}
	sets := 1
	if param, ok := strings.CutPrefix(resp.Header.Get("Content-Type"), StreamContentType+"; sets="); ok {
		if sets, err = strconv.Atoi(param); err != nil || sets != n {
			resp.Body.Close()
			return nil, fmt.Errorf("endpoint: %d queries answered in %q sets", n, param)
		}
	}
	g.groups = g.groups && (n == 1 || sets > 1)
	g.texts = g.texts[sets:]
	return g.c.rowsOf(resp, sets)
}

var _ BatchStreamer = (*clientPrepared)(nil)
