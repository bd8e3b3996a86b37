package sparql

import (
	"fmt"
	"iter"
	"slices"

	"sofya/internal/rdf"
)

// iter.go exposes the execution cores (exec.go) as a pull-based row
// iterator. An unordered plan's join tree produces rows on demand, on
// an iter.Pull coroutine, a batch of up to borrowBatch rows at a time
// (ringRows), so a caller that stops pulling — an early LIMIT, a probe
// that found what it needed — aborts the enumeration instead of paying
// for the rows it discards. An ORDER BY plan has enumerated every match
// before its first row can leave, so it needs no coroutine: the first
// Next selects the window in the caller's goroutine, and later calls
// walk it (windowRows). An unordered iterator of fresh rows copies
// each row it hands out of the ring. Draining a RowIter yields exactly
// the rows Exec would return, byte for byte, RAND() streams included:
// both run the same cores.
//
// Every source ends its execution by one rule: the RowIter ends it
// (execState.end), once, on the caller's goroutine, when the rows are
// exhausted or the iterator is closed — after an unordered stream's
// coroutine has returned (iter.Pull's stop returns once it has). So a
// borrowed row stays the state's until the reader pulls past it, and a
// stream closed before its first Next hands its state back too.

// RowIter iterates over the rows of one SELECT execution. It is not
// safe for concurrent use, but independent iterators obtained from one
// Engine or Prepared are. Callers must Close the iterator when done
// (draining to exhaustion closes it implicitly).
type RowIter struct {
	vars []string
	ex   *execState // the execution, nil once it has ended
	src  rowSource
	row  []rdf.Term
	err  error
	done bool
	// fresh marks an unordered iterator of fresh rows (Iter): Next
	// copies the ring's row.
	fresh bool
	// win is an ordered execution's source (src points at it), so that
	// an ordered iterator is one allocation.
	win windowRows
}

// rowSource is what a RowIter pulls from: an unordered stream's
// coroutine (ringRows) or an ordered execution's window (windowRows).
type rowSource interface {
	// next returns the next row, or false once the rows are exhausted or
	// the execution failed (see err).
	next() ([]rdf.Term, bool)
	// err is the error that ended the rows, read once next returned false.
	err() error
	// stop abandons the rows, and returns once nothing reads the
	// execution state any more. It is idempotent, and a no-op once next
	// has returned false.
	stop()
}

// Vars returns the projected variable names, in projection order.
func (it *RowIter) Vars() []string { return it.vars }

// Next advances to the next row. It returns false once the result is
// exhausted, Close was called, or enumeration failed (see Err).
func (it *RowIter) Next() bool {
	if it.done {
		return false
	}
	row, ok := it.src.next()
	if !ok {
		it.err = it.src.err()
		it.Close()
		return false
	}
	if it.fresh {
		row = slices.Clone(row)
	}
	it.row = row
	return true
}

// Row returns the current row. For iterators from Iter/Stream the slice
// is freshly allocated per row and remains valid after further Next
// calls; for IterBorrowed iterators it is a reused buffer, valid only
// until the next Next.
func (it *RowIter) Row() []rdf.Term { return it.row }

// Err returns the error that ended iteration, if any. It is nil while
// rows remain and after a clean exhaustion or Close.
func (it *RowIter) Err() error { return it.err }

// Close releases the iterator's resources and aborts the underlying
// enumeration. It is idempotent and implied by exhausting the rows.
func (it *RowIter) Close() {
	it.done = true
	it.row = nil
	it.src.stop()
	if it.ex != nil {
		it.ex.end()
		it.ex = nil
	}
}

// Iter executes the prepared query as a stream: rows are produced on
// demand and the join aborts as soon as the caller closes the iterator.
// Every row is freshly allocated. The query must be a SELECT.
func (p *Prepared) Iter(args ...Arg) (*RowIter, error) {
	return p.iter("Iter", args, false)
}

// borrowBatch is the number of rows an unordered iterator ferries per
// coroutine switch. The iter.Pull handoff costs on the order of 100ns
// per switch — per-row, that dwarfs the work of producing a row from a
// KB's index — so those iterators rotate through a ring of batch
// projection buffers and cross the coroutine boundary once per batch.
// The enumeration thus runs up to borrowBatch rows ahead of the reader.
const borrowBatch = 64

// IterBorrowed is Iter with borrowed rows: Row() returns a buffer that
// the iterator reuses (treat it as valid only until the next Next)
// instead of allocating per row — one buffer on an ORDER BY plan, a
// ring of borrowBatch buffers otherwise, both the execution state's.
// Consumers that inspect rows at a merge point and copy only the winners
// (the federation's ordered merge), that copy out the terms they keep
// (the samplers), or that encode each row before the next (the server's
// frame writer), avoid O(result) row materialization; everything else
// about the stream — order, RAND() pairing, errors — is byte-identical
// to Iter.
func (p *Prepared) IterBorrowed(args ...Arg) (*RowIter, error) {
	return p.iter("IterBorrowed", args, true)
}

func (p *Prepared) iter(name string, args []Arg, borrowed bool) (*RowIter, error) {
	if p.form != SelectForm {
		return nil, fmt.Errorf("sparql: %s needs a SELECT query", name)
	}
	args, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	ex, limit, offset := p.start(args)
	it := &RowIter{vars: p.vars, ex: ex}
	if len(p.orderBy) > 0 {
		it.win = windowRows{ex: ex, limit: limit, offset: offset, borrowed: borrowed}
		if borrowed {
			ex.borrowRows(1)
		}
		it.src = &it.win
	} else {
		it.src, it.fresh = pullRing(ex, limit, offset), !borrowed
	}
	return it, nil
}

// borrowRows lays out n borrowed rows of the projection's width in the
// state's row buffers.
func (ex *execState) borrowRows(n int) []rdf.Term {
	ex.rows = slices.Grow(ex.rows[:0], n*len(ex.p.projSlot))[:n*len(ex.p.projSlot)]
	return ex.rows
}

// windowRows is the rowSource of an ORDER BY execution: the first next
// runs the selection (selectWindow) in the caller's goroutine, and every
// next emits one window row — into the state's row buffer when the
// rows are borrowed, a fresh row otherwise.
type windowRows struct {
	ex            *execState
	limit, offset int
	borrowed      bool

	selected bool
	n, i     int
	e        error
}

func (w *windowRows) next() ([]rdf.Term, bool) {
	if !w.selected {
		w.selected = true
		w.n, w.e = w.ex.selectWindow(w.limit, w.offset)
	}
	if w.i >= w.n {
		return nil, false
	}
	var buf []rdf.Term
	if w.borrowed {
		buf = w.ex.rows
	}
	row := w.ex.windowRow(w.i, buf)
	w.i++
	return row, true
}

func (w *windowRows) err() error { return w.e }
func (w *windowRows) stop()      {}

// ringRows is the rowSource of an unordered stream: the core runs on
// an iter.Pull coroutine, writes rows into a ring of borrowBatch rows
// (the state's row buffers) and crosses the coroutine boundary once per
// batch, whose rows stay readable until the consumer pulls past them.
type ringRows struct {
	batches func() (int, bool)
	cancel  func()
	ring    []rdf.Term
	w       int // row width
	n, i    int // rows in the current batch, rows read of it
	runErr  error
}

func pullRing(ex *execState, limit, offset int) *ringRows {
	s := &ringRows{ring: ex.borrowRows(borrowBatch), w: len(ex.p.projSlot)}
	s.batches, s.cancel = iter.Pull(func(yield func(int) bool) {
		n := 0
		ex.borrowRow = s.row(0)
		s.runErr = ex.streamUnordered(limit, offset, func([]rdf.Term) bool {
			if n++; n == borrowBatch {
				if !yield(n) {
					return false
				}
				n = 0
			}
			ex.borrowRow = s.row(n)
			return true
		})
		if s.runErr == nil && n > 0 {
			yield(n)
		}
	})
	return s
}

// row is the ring's i-th row.
func (s *ringRows) row(i int) []rdf.Term { return s.ring[i*s.w : (i+1)*s.w : (i+1)*s.w] }

func (s *ringRows) next() ([]rdf.Term, bool) {
	if s.i == s.n {
		n, ok := s.batches()
		if !ok {
			return nil, false
		}
		s.n, s.i = n, 0
	}
	s.i++
	return s.row(s.i - 1), true
}

func (s *ringRows) err() error { return s.runErr }
func (s *ringRows) stop()      { s.cancel() }
