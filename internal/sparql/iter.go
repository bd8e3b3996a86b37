package sparql

import (
	"fmt"
	"iter"

	"sofya/internal/rdf"
)

// iter.go exposes the streaming core (exec.go) as a pull-based row
// iterator: the join tree produces rows on demand, so a caller that
// stops pulling — an early LIMIT, a probe that found what it needed —
// aborts the enumeration instead of paying for the rows it discards.
// Draining a RowIter yields exactly the rows Exec would return,
// byte for byte, RAND() streams included: both run the same stream.

// RowIter iterates over the rows of one SELECT execution. It is not
// safe for concurrent use, but independent iterators obtained from one
// Engine or Prepared are. Callers must Close the iterator when done
// (draining to exhaustion closes it implicitly).
type RowIter struct {
	vars []string
	next func() ([]rdf.Term, bool)
	stop func()
	errp *error
	row  []rdf.Term
	err  error
	done bool
}

// newRowIter wraps the push-form streaming core into a pull iterator.
// run must call yield for every result row, in order, and return only
// real errors (a false yield is a clean stop).
func newRowIter(vars []string, run func(yield func([]rdf.Term) bool) error) *RowIter {
	it := &RowIter{vars: vars}
	runErr := new(error)
	it.errp = runErr
	it.next, it.stop = iter.Pull(func(yield func([]rdf.Term) bool) {
		*runErr = run(yield)
	})
	return it
}

// Vars returns the projected variable names, in projection order.
func (it *RowIter) Vars() []string { return it.vars }

// Next advances to the next row. It returns false once the result is
// exhausted, Close was called, or enumeration failed (see Err).
func (it *RowIter) Next() bool {
	if it.done {
		return false
	}
	row, ok := it.next()
	if !ok {
		it.done = true
		it.row = nil
		it.err = *it.errp
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
	if it.done {
		return
	}
	it.done = true
	it.row = nil
	it.stop()
}

// Iter executes the prepared query as a stream: rows are produced on
// demand and the join aborts as soon as the caller closes the iterator.
// The query must be a SELECT.
func (p *Prepared) Iter(args ...Arg) (*RowIter, error) {
	if p.form != SelectForm {
		return nil, fmt.Errorf("sparql: Iter needs a SELECT query")
	}
	args, textFn, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	ex, limit, offset := p.start(args, textFn)
	return newRowIter(p.vars, func(yield func([]rdf.Term) bool) error {
		return ex.streamSelect(limit, offset, yield)
	}), nil
}

// borrowBatch is the number of rows a borrowed iterator ferries per
// coroutine switch. The iter.Pull handoff costs on the order of 100ns
// per switch — per-row, that dwarfs the work of producing a row from a
// KB's index — so borrowed iterators rotate through a ring of batch
// projection buffers and cross the coroutine boundary once per batch.
const borrowBatch = 64

// IterBorrowed is Iter with borrowed rows: Row() returns a buffer that
// is reused after at most borrowBatch further Next calls (treat it as
// valid only until the next Next) — the iterator writes rows into a
// fixed ring of projection buffers instead of allocating per row.
// Consumers that inspect rows at a merge point and copy only the
// winners (the federation's ordered merge) avoid O(result) row
// materialization; everything else about the stream — order, RAND()
// pairing, errors — is byte-identical to Iter.
func (p *Prepared) IterBorrowed(args ...Arg) (*RowIter, error) {
	if p.form != SelectForm {
		return nil, fmt.Errorf("sparql: IterBorrowed needs a SELECT query")
	}
	args, textFn, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	ex, limit, offset := p.start(args, textFn)
	nv := len(p.vars)
	slots := make([][]rdf.Term, borrowBatch)
	backing := make([]rdf.Term, borrowBatch*nv)
	for i := range slots {
		slots[i] = backing[i*nv : (i+1)*nv : (i+1)*nv]
	}
	return newBatchRowIter(p.vars, func(yield func([][]rdf.Term) bool) error {
		buf := make([][]rdf.Term, 0, borrowBatch)
		si := 0
		ex.borrowRow = slots[0]
		err := ex.streamSelect(limit, offset, func(row []rdf.Term) bool {
			buf = append(buf, row)
			si++
			if si == borrowBatch {
				if !yield(buf) {
					return false
				}
				buf, si = buf[:0], 0
			}
			ex.borrowRow = slots[si]
			return true
		})
		if err == nil && len(buf) > 0 {
			yield(buf)
		}
		return err
	}), nil
}

// newBatchRowIter wraps a batch-yielding streaming core into the same
// pull iterator, amortizing the coroutine switch over whole batches.
// run must yield non-empty batches of rows, in order; a yielded batch
// stays readable until run resumes (the consumer pulls again).
func newBatchRowIter(vars []string, run func(yield func([][]rdf.Term) bool) error) *RowIter {
	it := &RowIter{vars: vars}
	runErr := new(error)
	it.errp = runErr
	pull, stop := iter.Pull(func(yield func([][]rdf.Term) bool) {
		*runErr = run(yield)
	})
	var cur [][]rdf.Term
	bi := 0
	it.next = func() ([]rdf.Term, bool) {
		for bi >= len(cur) {
			b, ok := pull()
			if !ok {
				return nil, false
			}
			cur, bi = b, 0
		}
		row := cur[bi]
		bi++
		return row, true
	}
	it.stop = stop
	return it
}
