package endpoint

import (
	"cmp"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// Rows is a streamed SELECT result: rows arrive on demand, and closing
// the stream early aborts the remaining work wherever the endpoint can
// (a Local endpoint stops its join tree; remote endpoints have already
// drained). Row slices are read-only and remain valid after further
// Next calls — except on streams obtained through StreamBorrowed,
// whose rows are reused buffers valid only until the next Next. A Rows
// is not safe for concurrent use; independent streams from one
// endpoint are.
//
// The iteration protocol matches sparql.RowIter: Next advances and
// reports whether a row is available, Row returns it, Err reports the
// error that ended iteration (nil after clean exhaustion or Close), and
// Close is idempotent and implied by exhaustion. Truncated reports —
// once the stream has ended — whether a row cap cut it short.
type Rows interface {
	Vars() []string
	Next() bool
	Row() []rdf.Term
	Err() error
	Truncated() bool
	Close()
}

// RowSets is the answer to a group of executions of one template
// (StreamBatch): one result set per argument tuple, in tuple order, read
// one after the other through the Rows methods — database/sql's shape.
// It starts on the first tuple's set; NextResultSet abandons what is left
// of the current set for the next tuple's, reporting false when there is
// none or it failed (see Err). Close releases the whole group.
type RowSets interface {
	Rows
	NextResultSet() bool
}

// rowSets is the RowSets of every group that is not one response body:
// Rows is the current set — itself a RowSets when it is a grouped body,
// whose own sets then come first — next opens the set after it (none
// left: nil, nil), and done, if any, runs once when the group ends, at
// Close or a false NextResultSet. A set that ended in error ends it.
type rowSets struct {
	Rows
	next func() (Rows, error)
	done func()
	err  error
}

// NewRowSets makes a RowSets of a first set, the function that opens each
// further one and the one that releases what the group holds (or nil).
func NewRowSets(first Rows, next func() (Rows, error), done func()) RowSets {
	return &rowSets{Rows: first, next: next, done: done}
}

func (s *rowSets) NextResultSet() bool {
	if inner, ok := s.Rows.(RowSets); ok && inner.NextResultSet() {
		return true
	}
	if s.err = cmp.Or(s.err, s.Rows.Err()); s.err == nil && s.next != nil {
		s.Rows.Close()
		var rows Rows
		if rows, s.err = s.next(); rows != nil {
			s.Rows = rows
			return true
		}
	}
	s.Close()
	return false
}

func (s *rowSets) Close() {
	s.Rows.Close()
	if s.next = nil; s.done != nil {
		s.done()
		s.done = nil
	}
}

func (s *rowSets) Err() error { return cmp.Or(s.err, s.Rows.Err()) }

// ReleasingRows is a stream that holds something for as long as it is
// open — an admission slot, the context of the attempt that won a hedged
// open: Release runs once, when the stream is exhausted or closed,
// whichever comes first.
type ReleasingRows struct {
	Rows
	Release func()
}

func (r *ReleasingRows) Next() bool {
	ok := r.Rows.Next()
	if !ok {
		r.release()
	}
	return ok
}

func (r *ReleasingRows) Close() {
	r.Rows.Close()
	r.release()
}

func (r *ReleasingRows) release() {
	if r.Release != nil {
		r.Release()
		r.Release = nil
	}
}

// ReplaySets wraps the results of a group as the group's streams — what
// ReplayRows is to one result. No results make one empty set.
func ReplaySets(results []*sparql.Result) RowSets {
	if len(results) == 0 {
		results = []*sparql.Result{{}}
	}
	i := 0
	return NewRowSets(ReplayRows(results[0]), func() (Rows, error) {
		if i++; i >= len(results) {
			return nil, nil
		}
		return ReplayRows(results[i]), nil
	}, nil)
}

// replayRows streams an in-memory Result — the drain-then-iterate
// fallback for endpoints without a native streaming path, and the
// replay path of the caching decorator.
type replayRows struct {
	vars  []string
	rows  [][]rdf.Term
	trunc bool
	i     int
	row   []rdf.Term
}

// ReplayRows wraps a drained result as a stream — the drain-then-iterate
// adapter, for this package and for other endpoint implementations (the
// shard federation replays merged results with it). The rows are
// shared, not copied: treat them as read-only, as with any endpoint
// result.
func ReplayRows(res *sparql.Result) Rows {
	return &replayRows{vars: res.Vars, rows: res.Rows, trunc: res.Truncated}
}

func (r *replayRows) Vars() []string { return r.vars }

func (r *replayRows) Next() bool {
	if r.i >= len(r.rows) {
		r.row = nil
		return false
	}
	r.row = r.rows[r.i]
	r.i++
	return true
}

func (r *replayRows) Row() []rdf.Term { return r.row }
func (r *replayRows) Err() error      { return nil }
func (r *replayRows) Truncated() bool { return r.trunc }
func (r *replayRows) Close() {
	r.i = len(r.rows)
	r.row = nil
}

// localRows adapts a sparql.RowIter to the endpoint contract: it
// enforces the quota's row cap while rows are pulled and charges the
// endpoint's row statistics exactly once, whether the stream is
// drained, capped, or closed early.
type localRows struct {
	l       *Local
	it      *sparql.RowIter
	maxRows int
	n       int
	trunc   bool
	done    bool
}

func (r *localRows) Vars() []string  { return r.it.Vars() }
func (r *localRows) Row() []rdf.Term { return r.it.Row() }
func (r *localRows) Err() error      { return r.it.Err() }
func (r *localRows) Truncated() bool { return r.trunc }

func (r *localRows) Next() bool {
	if r.done {
		return false
	}
	if r.maxRows > 0 && r.n >= r.maxRows {
		// The cap is reached; like the drain path, only flag truncation
		// if the engine actually had another row to give.
		if r.it.Next() {
			r.trunc = true
		}
		r.finish()
		return false
	}
	if !r.it.Next() {
		r.finish()
		return false
	}
	r.n++
	return true
}

func (r *localRows) Close() { r.finish() }

func (r *localRows) finish() {
	if r.done {
		return
	}
	r.done = true
	r.it.Close()
	r.l.countStreamed(r.n, r.trunc)
}

var (
	_ Rows    = (*replayRows)(nil)
	_ Rows    = (*localRows)(nil)
	_ RowSets = (*rowSets)(nil)
)
