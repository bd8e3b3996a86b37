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
)

// wire.go is the batch-framed streaming side of the SPARQL HTTP
// protocol. The in-process federation merge pulls shard rows in 64-row
// batches (sparql's borrowed-iterator ring); a network hop must not
// regress that to a round trip per row, so streamed prepared queries
// cross the wire in the same granularity:
//
//	POST /sparql   query=<text>&stream=1
//
//	→ 200 Content-Type: application/x-sofya-rows+jsonl
//	  {"head":{"vars":["s","o"]}}
//	  {"rows":[[term,term],...]}                        ≤ WireBatch rows
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
// protocol error. A grouped answer (multi.go) is several such sequences,
// head to terminal frame, one after the other in one body, its media type
// saying how many ("; sets=N"): wireRows.NextResultSet moves from one to
// the next, and only the last one's end is the body's.
//
// The frames are encoded and decoded by codec.go. Both sides recycle
// their buffers, up to maxPooledFrameBufs each: the server its encode
// buffer (frameBufs) when the handler returns, the client its read
// buffer (readBufs) when the stream finishes — at its last row, an error
// or Close. Nothing a stream hands out points into that buffer: the
// strings of a decoded frame are copies, its rows one slice of their own.
//
// A stream carries rows and nothing about their order: the ORDER BY keys
// of a federated query are evaluated where its shards' streams merge
// (shard/merge.go). Form fields and frame members this file does not
// name are ignored, on both sides.

// StreamContentType is the media type of the batch-framed row stream.
const StreamContentType = "application/x-sofya-rows+jsonl"

// WireBatch is the number of rows per stream frame — matched to the
// 64-row batches the in-process merge pulls, so one network read feeds
// one merge batch.
const WireBatch = 64

// frameBufs recycles a frameWriter's encode buffer, so that a steady
// stream of small answers allocates none; a buffer a large batch has
// grown beyond maxPooledFrameBufs is left to the collector.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrameBufs = 64 << 10

// frameWriter encodes frame sequences onto one response through one
// encode buffer (writeSets): one sequence for a stream, one per text for
// a group. Only a full batch is written out and flushed on its own. The
// head frame, a final partial batch and the terminal frame ride in
// whatever write carries them, so an answer shorter than a batch — most
// probes, and most groups of them — is one write with a Content-Length,
// and its reader sees the end of the body with the last frame.
type frameWriter struct {
	w      http.ResponseWriter
	buf    *[]byte
	out    []byte // the frames not yet written
	wrote  bool   // a batch went out on its own: the answer is chunked
	failed bool   // nothing more goes out: a write failed, or a status answered
}

func (fw *frameWriter) init(w http.ResponseWriter) {
	fw.w, fw.buf = w, frameBufs.Get().(*[]byte)
	fw.out = (*fw.buf)[:0]
}

// sequence drains rows into one frame sequence and reports whether it
// ended in an end frame. Any mid-stream error — a shard quota trip, a
// failed upstream — becomes the terminal error frame; a transport write
// error just stops the answer.
func (fw *frameWriter) sequence(rows Rows) bool {
	defer rows.Close()
	out := appendHeadFrame(fw.out, rows.Vars())
	n := 0 // rows in the rows frame being built
	for rows.Next() {
		if n == 0 {
			out = append(out, `{"rows":[[`...)
		} else {
			out = append(out, ",["...)
		}
		for i, t := range rows.Row() {
			if i > 0 {
				out = append(out, ',')
			}
			out = appendTerm(out, t)
		}
		out = append(out, ']')
		if n++; n == WireBatch {
			out, n = append(out, "]}\n"...), 0
			if _, werr := fw.w.Write(out); werr != nil {
				fw.out, fw.failed = out[:0], true
				return false
			}
			if f, ok := fw.w.(http.Flusher); ok {
				f.Flush()
			}
			out, fw.wrote = out[:0], true
		}
	}
	if n > 0 {
		out = append(out, "]}\n"...)
	}
	err := rows.Err()
	trunc := rows.Truncated()
	rows.Close()
	if err != nil {
		out = appendErrorFrame(out, err)
	} else {
		out = appendEndFrame(out, trunc)
	}
	fw.out = out
	return err == nil
}

// finish writes what is left of the answer and recycles the buffers.
func (fw *frameWriter) finish() {
	if !fw.failed {
		if !fw.wrote {
			fw.w.Header().Set("Content-Length", strconv.Itoa(len(fw.out)))
		}
		_, _ = fw.w.Write(fw.out)
	}
	if cap(fw.out) <= maxPooledFrameBufs {
		*fw.buf = fw.out
		frameBufs.Put(fw.buf)
	}
}

// writeSets is the one framed answer: n frame sequences, the i-th of the
// rows open(i) returns, in order — one for a stream, one per text for a
// group. A set that cannot be opened answers for the request, with the
// status its own request would have had, while nothing has left; once a
// batch is out it ends the answer in an error frame where its sequence
// would have begun, and the sequences before it stay valid. Sets after a
// failed one are not opened.
func writeSets(w http.ResponseWriter, contentType string, n int, open func(i int) (Rows, error)) {
	var fw frameWriter
	fw.init(w)
	w.Header().Set("Content-Type", contentType)
	for i := 0; i < n; i++ {
		rows, err := open(i)
		if err != nil && !fw.wrote {
			fw.failed = true
			writeQueryError(w, err)
			break
		}
		if err != nil {
			fw.out = appendErrorFrame(fw.out, err)
			break
		}
		if !fw.sequence(rows) {
			break
		}
	}
	fw.finish()
}

// wireRows is the client side of a batch-framed stream: Rows over an
// HTTP response body, decoding one frame per line.
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

	// A grouped answer (multi.go) holds sets frame sequences, one after
	// the other; set is the one being read, eos that its terminal frame
	// is in. A plain stream is a group of one.
	set, sets int
	eos       bool

	vars []string
	// The current frame: n rows, row-major in terms — one backing slice
	// per frame, never reused, because rows stay valid after Next.
	terms []rdf.Term
	n, bi int
	row   []rdf.Term
	err   error
	trunc bool
	done  bool
}

// readBufs lends streams their read buffers (see the file comment).
var readBufs = sync.Pool{New: func() any { b := make([]byte, 4<<10); return &b }}

// maxFrameBytes bounds one frame line, like the 64 MiB a whole-result
// document may take.
const maxFrameBytes = 64 << 20

// newWireRows reads the head frame of the first of the body's sets
// sequences — the open completes when the server's first write arrives,
// which carries the first rows or the whole answer: the signal hedged
// reads race on. size is the body's declared length, if any.
func newWireRows(body io.ReadCloser, size int64, sets int) (*wireRows, error) {
	r := &wireRows{body: body, pooled: readBufs.Get().(*[]byte), sets: sets}
	if r.buf = *r.pooled; size > int64(len(r.buf)) && size <= maxPooledFrameBufs {
		r.buf = make([]byte, size)
	}
	if !r.readHead() {
		return nil, r.err
	}
	return r, nil
}

// readHead opens the sequence the body is at.
func (r *wireRows) readHead() bool {
	var f frame
	line, err := r.line()
	if err == nil {
		err = r.dec.frame(line, &f, -1)
	}
	switch {
	case err != nil:
		r.fail("reading stream head", err)
	case f.kind == frameError:
		r.err = f.err
		r.finish()
	case f.kind != frameHead:
		r.fail("stream did not start with a head frame", nil)
	}
	r.vars = f.vars
	return r.err == nil
}

// fail ends the stream in a transport or protocol error, naming the
// sequence when there are several.
func (r *wireRows) fail(what string, err error) {
	if r.sets > 1 {
		what = fmt.Sprintf("%s (sequence %d of %d)", what, r.set+1, r.sets)
	}
	if r.err = errors.New("endpoint: " + what); err != nil {
		r.err = fmt.Errorf("endpoint: %s: %w", what, err)
	}
	r.finish()
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

func (r *wireRows) Vars() []string  { return r.vars }
func (r *wireRows) Row() []rdf.Term { return r.row }
func (r *wireRows) Err() error      { return r.err }
func (r *wireRows) Truncated() bool { return r.trunc }

func (r *wireRows) Next() bool {
	if r.done || r.eos {
		return false
	}
	for r.bi >= r.n {
		if !r.nextFrame() {
			return false
		}
	}
	w := len(r.vars)
	r.row = r.terms[r.bi*w : (r.bi+1)*w : (r.bi+1)*w]
	r.bi++
	return true
}

// nextFrame pulls the next rows frame; false at the sequence's end
// (clean or not). The last sequence's end finishes the stream.
func (r *wireRows) nextFrame() bool {
	line, err := r.line()
	if err != nil {
		// The terminal frame never arrived: the connection died
		// mid-stream. Surface the transport error rather than passing
		// the prefix off as the whole result.
		r.fail("stream cut mid-flight", err)
		return false
	}
	var f frame
	if err := r.dec.frame(line, &f, len(r.vars)); err != nil {
		r.fail("bad stream frame", err)
		return false
	}
	switch f.kind {
	case frameHead:
		r.fail("second head frame in a stream", nil)
	case frameError:
		r.err = f.err
		r.readTail()
		r.finish()
	case frameEnd:
		r.trunc, r.eos, r.row = f.truncated, true, nil
		if r.set+1 >= r.sets {
			r.readTail()
			r.finish()
		}
	default:
		r.terms, r.n, r.bi = f.terms, f.n, 0
		return true
	}
	return false
}

// NextResultSet implements RowSets over a grouped answer: it reads past
// what is left of the current sequence and opens the next one.
func (r *wireRows) NextResultSet() bool {
	if r.set+1 >= r.sets {
		r.finish()
	}
	for !r.done && !r.eos {
		r.nextFrame()
	}
	if r.done {
		return false
	}
	r.set++
	r.eos, r.trunc, r.n, r.bi = false, false, 0, 0
	return r.readHead()
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
				r.fail("data after the stream's terminal frame", nil)
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
	r.row = nil
	r.body.Close()
	if len(r.buf) <= maxPooledFrameBufs {
		*r.pooled = r.buf
		readBufs.Put(r.pooled)
	}
	r.buf = nil
}

var _ RowSets = (*wireRows)(nil)
