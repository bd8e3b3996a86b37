package endpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// wire.go is the batch-framed streaming side of the SPARQL HTTP
// protocol. The in-process federation merge pulls shard rows in 64-row
// batches (sparql's borrowed-iterator ring); a network hop must not
// regress that to a round trip per row, so streamed prepared queries
// cross the wire in the same granularity:
//
//	POST /sparql   query=<text>&stream=1[&orderspec=<text>]
//
//	→ 200 Content-Type: application/x-sofya-rows+jsonl
//	  {"head":{"vars":["s","o"],"keys":[1]}}
//	  {"rows":[[term,term],...], "keyvals":[[v],...]}   ≤ WireBatch rows
//	  ...
//	  {"end":{"truncated":false}}                       — or —
//	  {"error":"...","quota":true}
//
// Each frame is one JSON line. A full batch is written and flushed as a
// unit: the consumer costs one network read per batch, not per row. The
// head frame, a final partial batch and the terminal frame are never
// flushed on their own — they leave with the next batch or when the
// handler returns — so an answer shorter than one batch is a single
// write, and a stream opens for its reader when its first rows (or its
// end) arrive. The terminal frame is either an end frame (with the
// stream's truncation flag) or an error frame — a stream that stops
// without one was cut mid-flight and the client reports the transport
// error instead of a silently short result; bytes after one are a
// protocol error.
//
// The frames are encoded and decoded by codec.go. Both sides recycle
// their buffers, up to maxPooledFrameBufs each: the server its encode
// buffers (frameBufs) when the handler returns, the client its read
// buffer (readBufs) when the stream finishes — at its last row, an error
// or Close. Nothing a stream hands out points into that buffer: the
// strings of a decoded frame are copies, its rows one slice of their own.
//
// orderspec carries the canonical text of the *original* ordered query
// whose stripped enumeration this stream is (the federation's ORDER BY
// pushdown). The server re-derives the deterministic ORDER BY keys from
// it (sparql.AnalyzeShard — the same analysis the merge point runs) and
// attaches each row's key values to the frames, so the merge point
// receives keys instead of re-evaluating expressions per merged row.
// Bare RAND() keys are never attached: their draws pair with rows in
// whole-KB enumeration order, which only the merge point knows (no
// shard can see where its rows land in the interleave), so they are
// re-drawn merge-side from the seed ⊕ canonical-text stream.

// StreamContentType is the media type of the batch-framed row stream.
const StreamContentType = "application/x-sofya-rows+jsonl"

// WireBatch is the number of rows per stream frame — matched to the
// 64-row batches the in-process merge pulls, so one network read feeds
// one merge batch.
const WireBatch = 64

// orderKeyEvals compiles the deterministic ORDER BY key evaluators of
// an orderspec query text: the canonical original query whose stripped
// enumeration is being streamed. Returned evaluators run over projected
// rows (the pushdown preserves the projection). RAND keys and keys the
// analysis cannot compile are skipped — the merge point handles those.
func orderKeyEvals(orderspec string) (idx []int, evals []func([]rdf.Term) sparql.Value, err error) {
	q, err := sparql.Parse(orderspec)
	if err != nil {
		return nil, nil, fmt.Errorf("endpoint: bad orderspec: %w", err)
	}
	shape := sparql.AnalyzeShard(q, nil)
	for i, k := range shape.Keys {
		if k.Eval == nil {
			continue
		}
		idx = append(idx, i)
		evals = append(evals, k.Eval)
	}
	return idx, evals, nil
}

// frameBufs recycles writeStream's two encode buffers, so that a
// steady stream of small answers allocates none; buffers a large batch
// has grown beyond maxPooledFrameBufs are left to the collector.
var frameBufs = sync.Pool{New: func() any { return new([2][]byte) }}

const maxPooledFrameBufs = 64 << 10

// writeStream drains rows into batch frames on w. Any mid-stream error
// — a shard quota trip, a failed upstream — becomes the terminal error
// frame; transport write errors just stop the stream (the peer is gone).
//
// Only a full batch is written out and flushed on its own. The head
// frame, a final partial batch and the terminal frame ride in whatever
// write carries them, so an answer shorter than a batch — most probes —
// is one write with a Content-Length, and its reader sees the end of
// the body with the last frame.
func writeStream(w http.ResponseWriter, rows Rows, keyIdx []int, keyEvals []func([]rdf.Term) sparql.Value) {
	defer rows.Close()
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", StreamContentType)

	// out holds the frames not yet written; the rows frame being built
	// starts at frameAt and has n rows so far. Its key values collect in
	// kv until it is closed, because they follow the rows in it.
	bufs := frameBufs.Get().(*[2][]byte)
	out, kv := appendHeadFrame(bufs[0][:0], rows.Vars(), keyIdx), bufs[1][:0]
	defer func() {
		if cap(out)+cap(kv) <= maxPooledFrameBufs {
			bufs[0], bufs[1] = out, kv
			frameBufs.Put(bufs)
		}
	}()
	n, frameAt, wrote := 0, 0, false
	closeFrame := func() {
		if n == 0 {
			return
		}
		out = append(out, ']')
		if len(keyEvals) > 0 {
			out = append(out, `,"keyvals":[`...)
			out = append(out, kv...)
			out = append(out, ']')
			kv = kv[:0]
		}
		out = append(out, "}\n"...)
		n = 0
	}
	var err error
rows:
	for rows.Next() {
		row := rows.Row()
		if n == 0 {
			frameAt = len(out)
			out = append(out, `{"rows":[[`...)
		} else {
			out = append(out, ",["...)
		}
		for i, t := range row {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendTerm(out, t)
		}
		out = append(out, ']')
		if len(keyEvals) > 0 {
			if n > 0 {
				kv = append(kv, ',')
			}
			kv = append(kv, '[')
			for i, ev := range keyEvals {
				if i > 0 {
					kv = append(kv, ',')
				}
				if kv, err = appendKeyValue(kv, ev(row)); err != nil {
					// The frame that would misstate a key is dropped:
					// the stream ends in the error.
					out, n = out[:frameAt], 0
					break rows
				}
			}
			kv = append(kv, ']')
		}
		if n++; n == WireBatch {
			closeFrame()
			if _, werr := w.Write(out); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			out, wrote = out[:0], true
		}
	}
	closeFrame()
	if err == nil {
		err = rows.Err()
	}
	trunc := rows.Truncated()
	rows.Close()
	if err != nil {
		out = appendErrorFrame(out, err)
	} else {
		out = appendEndFrame(out, trunc)
	}
	if !wrote {
		w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	}
	_, _ = w.Write(out)
}

// wireRows is the client side of a batch-framed stream: Rows over an
// HTTP response body, decoding one frame per line. It implements
// KeyedRows — rows of an orderspec stream carry their deterministic
// ORDER BY key values, which the federation merge consumes instead of
// re-evaluating expressions.
type wireRows struct {
	body io.ReadCloser

	// buf[rd:wr] is read from the body and not yet consumed; buf[rd:nl]
	// is known to hold no newline. readErr is what the body's last Read
	// returned, once that is not nil. buf is on loan from readBufs.
	buf        []byte
	pooled     *[]byte
	rd, nl, wr int
	readErr    error
	dec        jsonDec

	vars   []string
	keyIdx []int
	// The current frame: n rows, row-major in terms — one backing slice
	// per frame, never reused, because rows stay valid after Next — and
	// their key values likewise in keyvals when the frame carries any.
	terms   []rdf.Term
	keyvals []sparql.Value
	n, bi   int
	row     []rdf.Term
	keys    []sparql.Value
	err     error
	trunc   bool
	done    bool
}

// readBufs lends streams their read buffers (see the file comment).
var readBufs = sync.Pool{New: func() any { b := make([]byte, 4<<10); return &b }}

// maxFrameBytes bounds one frame line, like the 64 MiB a whole-result
// document may take.
const maxFrameBytes = 64 << 20

// newWireRows reads the stream's head frame — the open completes when
// the server's first write arrives, which carries the first rows or the
// whole answer: the signal hedged reads race on. size is the body's
// length when the response declared one, for the read buffer.
func newWireRows(body io.ReadCloser, size int64) (*wireRows, error) {
	r := &wireRows{body: body, pooled: readBufs.Get().(*[]byte)}
	if r.buf = *r.pooled; size > int64(len(r.buf)) && size <= maxPooledFrameBufs {
		r.buf = make([]byte, size)
	}
	var f frame
	line, err := r.line()
	if err == nil {
		err = r.dec.frame(line, &f, -1, 0)
	}
	switch {
	case err != nil:
		err = fmt.Errorf("endpoint: reading stream head: %w", err)
	case f.kind == frameError:
		err = f.err
	case f.kind != frameHead:
		err = errors.New("endpoint: stream did not start with a head frame")
	}
	if err != nil {
		r.finish()
		return nil, err
	}
	r.vars, r.keyIdx = f.vars, f.keys
	return r, nil
}

// line returns the next frame line without its newline, valid until the
// next call. A line the body ends in the middle of is not a frame.
func (r *wireRows) line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(r.buf[r.nl:r.wr], '\n'); i >= 0 {
			line := r.buf[r.rd : r.nl+i]
			r.rd = r.nl + i + 1
			r.nl = r.rd
			return line, nil
		}
		r.nl = r.wr
		if r.readErr != nil {
			if r.readErr == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, r.readErr
		}
		if r.rd > 0 {
			r.wr = copy(r.buf, r.buf[r.rd:r.wr])
			r.rd, r.nl = 0, r.wr
		}
		if r.wr == len(r.buf) {
			if len(r.buf) >= maxFrameBytes {
				return nil, errors.New("endpoint: stream frame too long")
			}
			r.buf = append(r.buf, make([]byte, len(r.buf))...)
		}
		n, err := r.body.Read(r.buf[r.wr:])
		r.wr += n
		r.readErr = err
	}
}

func (r *wireRows) Vars() []string          { return r.vars }
func (r *wireRows) Row() []rdf.Term         { return r.row }
func (r *wireRows) Err() error              { return r.err }
func (r *wireRows) Truncated() bool         { return r.trunc }
func (r *wireRows) AttachedKeys() []int     { return r.keyIdx }
func (r *wireRows) RowKeys() []sparql.Value { return r.keys }

func (r *wireRows) Next() bool {
	if r.done {
		return false
	}
	for r.bi >= r.n {
		if !r.nextFrame() {
			return false
		}
	}
	w, k := len(r.vars), len(r.keyIdx)
	r.row = r.terms[r.bi*w : (r.bi+1)*w : (r.bi+1)*w]
	r.keys = nil
	if r.keyvals != nil {
		r.keys = r.keyvals[r.bi*k : (r.bi+1)*k : (r.bi+1)*k]
	}
	r.bi++
	return true
}

// nextFrame pulls the next rows frame; false at stream end (clean or
// not).
func (r *wireRows) nextFrame() bool {
	line, err := r.line()
	if err != nil {
		// The terminal frame never arrived: the connection died
		// mid-stream. Surface the transport error rather than passing
		// the prefix off as the whole result.
		r.err = fmt.Errorf("endpoint: stream cut mid-flight: %w", err)
		r.finish()
		return false
	}
	var f frame
	if err := r.dec.frame(line, &f, len(r.vars), len(r.keyIdx)); err != nil {
		r.err = fmt.Errorf("endpoint: bad stream frame: %w", err)
		r.finish()
		return false
	}
	switch f.kind {
	case frameHead:
		r.err = errors.New("endpoint: second head frame in a stream")
	case frameError:
		r.err = f.err
		r.readTail()
	case frameEnd:
		r.trunc = f.truncated
		r.readTail()
	default:
		r.terms, r.keyvals, r.n, r.bi = f.terms, f.keyvals, f.n, 0
		return true
	}
	r.finish()
	return false
}

// readTail reads the body to its end once the terminal frame is in, so
// that the transport sees the end too and keeps the connection for the
// next request instead of tearing down one closed with a chunk trailer
// unread. All that may follow a terminal frame is white space, and it
// is not read for long.
func (r *wireRows) readTail() {
	rest := r.buf[r.rd:r.wr]
	for reads := 0; ; reads++ {
		if len(bytes.TrimSpace(rest)) > 0 {
			if r.err == nil {
				r.err = errors.New("endpoint: data after the stream's terminal frame")
			}
			return
		}
		if r.readErr != nil || reads == 4 {
			return // io.EOF; another error no longer matters to a complete answer
		}
		var n int
		n, r.readErr = r.body.Read(r.buf[:min(len(r.buf), 64)])
		rest = r.buf[:n]
	}
}

func (r *wireRows) Close() { r.finish() }

func (r *wireRows) finish() {
	if r.done {
		return
	}
	r.done = true
	r.row, r.keys = nil, nil
	r.body.Close()
	if len(r.buf) <= maxPooledFrameBufs {
		*r.pooled = r.buf
		readBufs.Put(r.pooled)
	}
	r.buf = nil
}

var (
	_ Rows      = (*wireRows)(nil)
	_ KeyedRows = (*wireRows)(nil)
)
