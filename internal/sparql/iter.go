package sparql

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"sofya/internal/rdf"
)

// iter.go exposes the execution cores (exec.go) as a pull-based row
// iterator. An unordered plan's join tree produces rows on demand, on
// an iter.Pull coroutine, so a caller that stops pulling — an early
// LIMIT, a probe that found what it needed — aborts the enumeration
// instead of paying for the rows it discards. An ORDER BY plan has
// enumerated every match before its first row can leave, so it needs no
// coroutine: the first Next selects the window in the caller's
// goroutine, and later calls walk it. Draining a RowIter yields exactly
// the rows Exec would return, byte for byte, RAND() streams included:
// both run the same cores.

// RowIter iterates over the rows of one SELECT execution. It is not
// safe for concurrent use, but independent iterators obtained from one
// Engine or Prepared are. Callers must Close the iterator when done
// (draining to exhaustion closes it implicitly).
type RowIter struct {
	vars []string
	src  rowSource
	row  []rdf.Term
	err  error
	done bool
	// win is an ordered execution's source (src points at it), so that
	// an ordered iterator is one allocation.
	win windowRows
}

// rowSource is what a RowIter pulls from: an unordered stream's
// coroutine (pulled, or ringRows when its rows are borrowed) or an
// ordered execution's window (windowRows).
type rowSource interface {
	// next returns the next row, or false once the rows are exhausted or
	// the execution failed (see err).
	next() ([]rdf.Term, bool)
	// err is the error that ended the rows, read once next returned false.
	err() error
	// stop abandons the execution. It is idempotent, and a no-op once
	// next has returned false.
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
		it.done = true
		it.row = nil
		it.err = it.src.err()
		return false
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
}

// Iter executes the prepared query as a stream: rows are produced on
// demand and the join aborts as soon as the caller closes the iterator.
// Every row is freshly allocated. The query must be a SELECT.
func (p *Prepared) Iter(args ...Arg) (*RowIter, error) {
	return p.iter("Iter", args, false)
}

// borrowBatch is the number of rows a borrowed unordered iterator
// ferries per coroutine switch. The iter.Pull handoff costs on the order
// of 100ns per switch — per-row, that dwarfs the work of producing a row
// from a KB's index — so those iterators rotate through a ring of batch
// projection buffers and cross the coroutine boundary once per batch.
const borrowBatch = 64

// IterBorrowed is Iter with borrowed rows: Row() returns a buffer that
// the iterator reuses (treat it as valid only until the next Next)
// instead of allocating per row — one buffer on an ORDER BY plan, a
// pooled ring of borrowBatch buffers otherwise. Consumers that inspect
// rows at a merge point and copy only the winners (the federation's
// ordered merge), that copy out the terms they keep (the samplers), or
// that encode each row before the next (the server's frame writer),
// avoid O(result) row materialization; everything else about the
// stream — order, RAND() pairing, errors — is byte-identical to Iter.
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
	it := &RowIter{vars: p.vars}
	switch {
	case len(p.orderBy) > 0:
		it.win = windowRows{ex: ex, limit: limit, offset: offset, borrowed: borrowed}
		if borrowed {
			ex.rowBuf = slices.Grow(ex.rowBuf[:0], len(p.projSlot))[:len(p.projSlot)]
		}
		it.src = &it.win
	// An unordered stream's execution ends on its coroutine, as soon as
	// the core returns. One closed before its first Next never starts
	// its coroutine: its state is left to the collector, never reused.
	case borrowed:
		it.src = pullBorrowed(ex, limit, offset)
	default:
		it.src = pull(func(yield func([]rdf.Term) bool) error {
			defer ex.end()
			return ex.streamUnordered(limit, offset, yield)
		})
	}
	return it, nil
}

// windowRows is the rowSource of an ORDER BY execution: the first next
// runs the selection (selectWindow) in the caller's goroutine, and every
// next emits one window row — into the state's rowBuf when the rows are
// borrowed, a fresh row otherwise. The execution ends (end, once; ex is
// nil after) when the rows are exhausted, when the iterator is closed,
// or when the selection fails.
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
		w.stop()
		return nil, false
	}
	var buf []rdf.Term
	if w.borrowed {
		buf = w.ex.rowBuf
	}
	row := w.ex.windowRow(w.i, buf)
	w.i++
	return row, true
}

func (w *windowRows) err() error { return w.e }

func (w *windowRows) stop() {
	if w.ex != nil {
		w.ex.end()
		w.ex = nil
	}
}

// pulled is the rowSource of an unordered stream: the push-form core
// runs on an iter.Pull coroutine and hands rows across as they come.
type pulled struct {
	pull   func() ([]rdf.Term, bool)
	cancel func()
	runErr error
}

func (s *pulled) next() ([]rdf.Term, bool) { return s.pull() }
func (s *pulled) err() error               { return s.runErr }
func (s *pulled) stop()                    { s.cancel() }

// pull wraps the push-form streaming core into a pull source. run must
// call yield for every result row, in order, and return only real
// errors (a false yield is a clean stop).
func pull(run func(yield func([]rdf.Term) bool) error) *pulled {
	s := &pulled{}
	s.pull, s.cancel = iter.Pull(func(yield func([]rdf.Term) bool) {
		s.runErr = run(yield)
	})
	return s
}

// ring is the projection buffers of a borrowed unordered stream:
// borrowBatch rows of one width over one backing, and the batch of them
// the core hands across the coroutine boundary.
type ring struct {
	backing []rdf.Term
	slots   [][]rdf.Term
	batch   [][]rdf.Term
}

// ringPool recycles rings, as idPool does ordered executions' arenas: a
// borrowed stream takes one when it opens and hands it back when it is
// exhausted or stopped, so a server streaming answer after answer
// allocates none. A ring wider than maxPooledScratch terms is dropped.
var ringPool = sync.Pool{New: func() any {
	return &ring{slots: make([][]rdf.Term, borrowBatch), batch: make([][]rdf.Term, 0, borrowBatch)}
}}

// getRing lends a ring of rows nv terms wide.
func getRing(nv int) *ring {
	rg := ringPool.Get().(*ring)
	if cap(rg.backing) < borrowBatch*nv {
		rg.backing = make([]rdf.Term, borrowBatch*nv)
	}
	for i := range rg.slots {
		rg.slots[i] = rg.backing[i*nv : (i+1)*nv : (i+1)*nv]
	}
	return rg
}

// put hands the ring back, its terms cleared so that the pool pins no
// KB's strings.
func (rg *ring) put() {
	if len(rg.backing) > maxPooledScratch {
		return
	}
	clear(rg.backing)
	rg.batch = rg.batch[:0]
	ringPool.Put(rg)
}

// ringRows is the rowSource of a borrowed unordered stream: the core
// writes rows into a pooled ring and crosses the coroutine boundary once
// per batch, which stays readable until the consumer pulls past it. The
// ring goes back to its pool when the stream is exhausted or stopped.
type ringRows struct {
	batches func() ([][]rdf.Term, bool)
	cancel  func()
	ring    *ring
	cur     [][]rdf.Term
	bi      int
	runErr  error
}

func pullBorrowed(ex *execState, limit, offset int) *ringRows {
	s := &ringRows{ring: getRing(len(ex.p.projSlot))}
	rg := s.ring
	s.batches, s.cancel = iter.Pull(func(yield func([][]rdf.Term) bool) {
		buf := rg.batch
		si := 0
		ex.borrowRow = rg.slots[0]
		s.runErr = ex.streamUnordered(limit, offset, func(row []rdf.Term) bool {
			buf = append(buf, row)
			si++
			if si == borrowBatch {
				if !yield(buf) {
					return false
				}
				buf, si = buf[:0], 0
			}
			ex.borrowRow = rg.slots[si]
			return true
		})
		// The last batch is the ring's, not the state's: the execution
		// ends before it is handed across.
		ex.end()
		if s.runErr == nil && len(buf) > 0 {
			yield(buf)
		}
	})
	return s
}

func (s *ringRows) next() ([]rdf.Term, bool) {
	for s.bi >= len(s.cur) {
		b, ok := s.batches()
		if !ok {
			s.release()
			return nil, false
		}
		s.cur, s.bi = b, 0
	}
	row := s.cur[s.bi]
	s.bi++
	return row, true
}

func (s *ringRows) err() error { return s.runErr }

// stop ends the coroutine — iter.Pull's stop returns once it has — and
// only then hands the ring back.
func (s *ringRows) stop() {
	s.cancel()
	s.release()
}

func (s *ringRows) release() {
	if s.ring != nil {
		s.cur = nil
		s.ring.put()
		s.ring = nil
	}
}
