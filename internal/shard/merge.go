package shard

import (
	"cmp"
	"encoding/binary"
	"errors"
	"sync"

	"sofya/internal/endpoint"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// merge.go reassembles shard answers into the whole-KB result. Two
// lazy pullers produce merged rows in a defined order — concatenation
// in shard order, or k-way merge on ascending subject term (= whole-KB
// enumeration order for star queries) — and fanoutRows applies the
// merge-point result pipeline (DISTINCT dedup, OFFSET skip, LIMIT
// early-exit) over either. Ordered queries stream through orderedRows,
// which re-derives ORDER BY keys on the reconstructed enumeration as
// rows are pulled and keeps only a bounded top-(offset+limit) selection
// of winners — O(k) memory and row materialization over an O(result)
// enumeration, byte-identical to the unsharded engine because the
// selection is the engine's own (sparql.OrderSelector).

// rowsSource is the per-shard stream the mergers consume. The ordered
// merge feeds on borrowed streams (endpoint.StreamBorrowed): a source's
// row is valid only until that source's next Next, so consumers copy
// the rows they keep.
type rowsSource = endpoint.Rows

// capResult applies a group-level row cap to a final result, with the
// unsharded endpoint's semantics: truncate only when rows actually
// exceed the cap, and flag it. The result is copied before truncation
// — a routed shard may hand out a shared object (a caching decorator's
// entry), which must not be mutated.
func capResult(res *sparql.Result, maxRows int) *sparql.Result {
	if maxRows > 0 && len(res.Rows) > maxRows {
		capped := *res
		capped.Rows = capped.Rows[:maxRows]
		capped.Truncated = true
		return &capped
	}
	return res
}

// capRows enforces the group-level row cap on a routed stream: rows
// pass through until the cap, and truncation is flagged only if the
// shard had another row to give.
type capRows struct {
	inner   endpoint.Rows
	maxRows int
	n       int
	trunc   bool
	done    bool
}

func newCapRows(inner endpoint.Rows, maxRows int) endpoint.Rows {
	if maxRows <= 0 {
		return inner
	}
	return &capRows{inner: inner, maxRows: maxRows}
}

func (r *capRows) Vars() []string  { return r.inner.Vars() }
func (r *capRows) Row() []rdf.Term { return r.inner.Row() }
func (r *capRows) Err() error      { return r.inner.Err() }
func (r *capRows) Truncated() bool { return r.trunc || r.inner.Truncated() }

func (r *capRows) Next() bool {
	if r.done {
		return false
	}
	if r.n >= r.maxRows {
		if r.inner.Next() {
			r.trunc = true
		}
		r.done = true
		r.inner.Close()
		return false
	}
	if !r.inner.Next() {
		r.done = true
		return false
	}
	r.n++
	return true
}

func (r *capRows) Close() {
	r.done = true
	r.inner.Close()
}

// setRows is a shard's current set as a merge source or a routed set. A
// merge or a row cap closes a source it is done with — exhausted, past its
// LIMIT, a loser — which must leave the group's body open: NextResultSet
// reads past what is left. It shows only the set's Rows, so that a
// RowSets handing it out never takes it for a group of its own and moves
// the shard's group on.
type setRows struct{ endpoint.Rows }

func (setRows) Close() {}

// groupSets is a group of streams over the shards: every shard that has
// tuples holds its group open — a fan-out template's pushdown on every
// shard, a routed template's own on the shards its tuples route to — and
// the sets come back in tuple order, each when the caller reaches it. A
// routed tuple's set is its shard's current one: the first tuple routed to
// a shard takes the shard's open set, each later one moves the shard's
// group on. A fan-out tuple's set merges every shard's current one, as a
// single execution would. Either way a group holds at most one merge's
// window and one read buffer per shard, however many tuples it has.
type groupSets struct {
	p       *groupPrepared
	argSets [][]sparql.Arg // the tuples from the current one on
	shardOf []int          // routed: their shards, from the current one on
	shards  []endpoint.RowSets
	used    []bool // routed: the shard's group has handed out its open set
}

// set is the current tuple's set.
func (s *groupSets) set() (endpoint.Rows, error) {
	p, args := s.p, s.argSets[0]
	if s.shardOf != nil {
		sh := s.shardOf[0]
		s.used[sh] = true
		return newCapRows(setRows{s.shards[sh]}, p.g.maxRows), nil
	}
	sources := make([]rowsSource, len(s.shards))
	for i, sh := range s.shards {
		sources[i] = setRows{sh}
	}
	if p.strat == stratMergeOrdered {
		spec, err := p.orderedSpec(args)
		if err != nil {
			return nil, err
		}
		return newOrderedRows(p.projVars, sources, spec, false), nil
	}
	limit, offset := p.effective(args)
	return newFanoutRows(p.projVars, p.puller(sources), p.distinct, offset, limit, p.g.maxRows), nil
}

// next moves the shards the next tuple reads to their next set.
func (s *groupSets) next() (endpoint.Rows, error) {
	if len(s.argSets) < 2 {
		return nil, nil
	}
	s.argSets = s.argSets[1:]
	if s.shardOf != nil {
		s.shardOf = s.shardOf[1:]
	}
	for i, sh := range s.shards {
		if (s.shardOf == nil || s.shardOf[0] == i && s.used[i]) && !sh.NextResultSet() {
			return nil, cmp.Or(sh.Err(), errors.New("shard: a shard's group of streams ended before the federation's"))
		}
	}
	return s.set()
}

// close closes the group on every shard that has one, whatever tuple it
// is on.
func (s *groupSets) close() {
	for _, sh := range s.shards {
		if sh != nil {
			sh.Close()
		}
	}
}

// puller produces merged rows one at a time, in the merge's order.
type puller interface {
	// next returns the next merged row; ok is false at exhaustion or
	// error (err reports which — a shard quota rejection mid-stream
	// arrives here, not as a silent end). The row is borrowed: it is
	// valid until the following next call, which may reuse its buffer.
	next() (row []rdf.Term, ok bool, err error)
	// truncated reports whether any contributing shard stream was
	// truncated so far.
	truncated() bool
	// close closes every shard stream (early, if rows remain).
	close()
}

// concatPuller yields each shard's rows in shard order.
type concatPuller struct {
	sources []rowsSource
	i       int
}

func newConcatPuller(sources []rowsSource) *concatPuller {
	return &concatPuller{sources: sources}
}

func (c *concatPuller) next() ([]rdf.Term, bool, error) {
	for c.i < len(c.sources) {
		src := c.sources[c.i]
		if src.Next() {
			return src.Row(), true, nil
		}
		if err := src.Err(); err != nil {
			return nil, false, err
		}
		c.i++
	}
	return nil, false, nil
}

func (c *concatPuller) truncated() bool { return anyTruncated(c.sources) }
func (c *concatPuller) close()          { closeAll(c.sources) }

// subjectPuller k-way merges shard streams on ascending subject term.
// Each stream is non-decreasing in its subject column (star queries
// enumerate grouped by subject in term order) and subjects never span
// shards, so always yielding the head with the least subject term
// reconstructs the whole-KB enumeration exactly.
//
// The winning source is advanced lazily, at the start of the following
// next call — a borrowed source reuses the yielded row's buffer on
// advance, so the consumer gets a full pull cycle to inspect or copy
// the row first.
type subjectPuller struct {
	sources []rowsSource
	heads   [][]rdf.Term
	col     int
	last    int // source whose head the previous next yielded; -1 none
	primed  bool
	err     error
}

func newSubjectPuller(sources []rowsSource, col int) *subjectPuller {
	return &subjectPuller{sources: sources, heads: make([][]rdf.Term, len(sources)), col: col, last: -1}
}

// advance pulls the next head of source i.
func (m *subjectPuller) advance(i int) error {
	if m.sources[i].Next() {
		m.heads[i] = m.sources[i].Row()
		return nil
	}
	m.heads[i] = nil
	return m.sources[i].Err()
}

func (m *subjectPuller) next() ([]rdf.Term, bool, error) {
	if m.err != nil {
		return nil, false, m.err
	}
	if !m.primed {
		m.primed = true
		for i := range m.sources {
			if err := m.advance(i); err != nil {
				m.err = err
				return nil, false, err
			}
		}
	} else if m.last >= 0 {
		i := m.last
		m.last = -1
		if err := m.advance(i); err != nil {
			m.err = err
			return nil, false, err
		}
	}
	best := -1
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if best < 0 || h[m.col].Compare(m.heads[best][m.col]) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	m.last = best
	return m.heads[best], true, nil
}

// closeSource drops source i from the merge and closes its stream —
// the ordered merge calls it once it has proved the source can no
// longer contribute a winning row (see orderedRows.closeLosers).
func (m *subjectPuller) closeSource(i int) {
	if m.heads[i] == nil && m.last != i {
		return
	}
	m.heads[i] = nil
	if m.last == i {
		m.last = -1
	}
	m.sources[i].Close()
}

func (m *subjectPuller) truncated() bool { return anyTruncated(m.sources) }
func (m *subjectPuller) close()          { closeAll(m.sources) }

func anyTruncated(sources []rowsSource) bool {
	for _, s := range sources {
		if s.Truncated() {
			return true
		}
	}
	return false
}

func closeAll(sources []rowsSource) {
	for _, s := range sources {
		s.Close()
	}
}

// appendRowKey appends a compact binary rendering of a projected row to
// buf — the merge point's DISTINCT dedup key. Each term contributes its
// kind byte and length-prefixed value, datatype and language, so the
// encoding is injective on term tuples: two rows collide iff their
// terms are pairwise equal, which is exactly the engine's TermID-based
// dedup relation (shard KBs intern canonicalized terms, so equal
// TermIDs ⇔ equal canonical terms ⇔ equal keys).
func appendRowKey(buf []byte, row []rdf.Term) []byte {
	for _, t := range row {
		buf = append(buf, byte(t.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
		buf = append(buf, t.Value...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
		buf = append(buf, t.Datatype...)
		buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
		buf = append(buf, t.Lang...)
	}
	return buf
}

// rowKey renders a projected row as a self-contained dedup key (an
// owned copy of the appendRowKey encoding) — the allocation-tolerant
// form for callers outside the hot merge loop.
func rowKey(row []rdf.Term) string {
	return string(appendRowKey(nil, row))
}

// rowDedup is the merge point's DISTINCT filter: one reused key buffer,
// a map of already-emitted keys. Only a genuinely new row costs an
// allocation (the map's owned key string); duplicate checks are
// allocation-free. The zero value is empty.
type rowDedup struct {
	seen map[string]struct{}
	buf  []byte
}

// maxPooledDedup bounds the entries of a DISTINCT table that pooled
// merge scratch keeps: a larger one is dropped, not cleared, so the pool
// never pins a large table.
const maxPooledDedup = 1 << 8

// dup records the row and reports whether it was already seen.
func (d *rowDedup) dup(row []rdf.Term) bool {
	d.buf = appendRowKey(d.buf[:0], row)
	if _, dup := d.seen[string(d.buf)]; dup {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	d.seen[string(d.buf)] = struct{}{}
	return false
}

// release empties the filter, dropping a table above maxPooledDedup.
func (d *rowDedup) release() {
	if len(d.seen) > maxPooledDedup {
		d.seen = nil
	}
	clear(d.seen)
}

// fanoutRows is the merged stream handed to callers: it applies the
// merge-point result pipeline over a puller and implements the Rows
// contract, closing every shard stream as soon as the LIMIT is
// satisfied (the losing shards stop producing) or the caller closes.
type fanoutRows struct {
	vars    []string
	p       puller
	dedup   *rowDedup // nil when not DISTINCT
	offset  int
	limit   int
	maxRows int // group-level row cap (0 = unlimited)
	emitted int
	row     []rdf.Term
	err     error
	trunc   bool
	done    bool
}

func newFanoutRows(vars []string, p puller, distinct bool, offset, limit, maxRows int) *fanoutRows {
	f := &fanoutRows{vars: vars, p: p, offset: offset, limit: limit, maxRows: maxRows}
	if distinct {
		f.dedup = new(rowDedup)
	}
	return f
}

func (f *fanoutRows) Vars() []string  { return f.vars }
func (f *fanoutRows) Row() []rdf.Term { return f.row }
func (f *fanoutRows) Err() error      { return f.err }
func (f *fanoutRows) Truncated() bool { return f.trunc }

func (f *fanoutRows) Next() bool {
	if f.done {
		return false
	}
	if f.limit >= 0 && f.emitted >= f.limit {
		f.finish()
		return false
	}
	for {
		row, ok, err := f.p.next()
		if err != nil {
			f.err = err
			f.finish()
			return false
		}
		if !ok {
			f.finish()
			return false
		}
		if f.dedup != nil && f.dedup.dup(row) {
			continue
		}
		if f.offset > 0 {
			f.offset--
			continue
		}
		if f.maxRows > 0 && f.emitted >= f.maxRows {
			// The group-level row cap is checked at each emission — after
			// dedup and offset, never cached across skipped rows — and
			// trips only because another emittable row was available,
			// like the unsharded endpoint.
			f.trunc = true
			f.finish()
			return false
		}
		f.row = row
		f.emitted++
		return true
	}
}

func (f *fanoutRows) Close() { f.finish() }

func (f *fanoutRows) finish() {
	if f.done {
		return
	}
	f.done = true
	f.row = nil
	f.trunc = f.trunc || f.p.truncated()
	f.p.close()
}

var _ endpoint.Rows = (*fanoutRows)(nil)

// drainRows collects a merged stream into a Result. Emitted rows must
// be the caller's to keep: a fanoutRows over sources that are not
// borrowed, an orderedRows made owned.
func drainRows(rows endpoint.Rows) (*sparql.Result, error) {
	defer rows.Close()
	res := &sparql.Result{Vars: rows.Vars()}
	for rows.Next() {
		res.Rows = append(res.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	res.Truncated = rows.Truncated()
	return res, nil
}

// orderedMergeSpec parameterizes the ORDER BY reassembly.
type orderedMergeSpec struct {
	col        int                    // merge column (subject)
	keys       []sparql.ShardOrderKey // per ORDER BY key
	orderTotal bool                   // bounded top-k selection is sound
	distinct   bool
	limit      int
	offset     int
	maxRows    int // group-level row cap (0 = unlimited)
	seed       int64
	text       string // canonical original text: the RAND stream's name
}

// orderedRows reassembles an ORDER BY query from live shard streams as
// an endpoint.Rows. Rows are enumerated in reconstructed whole-KB order
// (subject-term merge over borrowed streams), DISTINCT drops duplicates
// before any key is derived (duplicates consume no RAND draw, as in the
// engine), each key is re-drawn (bare RAND, from the engine-identical
// stream) or re-evaluated (deterministic keys, by the engine's own
// lowered closures over the borrowed row, through one sparql.RowKeys),
// and sparql.OrderSelector — the selection the engine itself runs —
// picks the window: bounded to offset+limit winners when the key list is
// statically total-ordered and a LIMIT is set, the reference stable sort
// by keys alone otherwise.
//
// A row the selector rejects is dropped while still borrowed; an
// admitted one is copied into the payload slot the selector names, a
// reusable term row, so a bounded selection's memory and copies are
// O(k) over an O(result) enumeration. The selector, the RAND() stream,
// the DISTINCT filter, the slots and the window's emission order live in
// one pooled mergeScratch, taken when the enumeration starts and handed
// back at exhaustion or Close: the rows are borrowed, valid until the
// next Next. An owned merge — a Stream's, a SelectCtx's — copies the
// window it emits into one slice of its own when the selection ends;
// that copy's destination is all that differs.
//
// The enumeration runs on the first Next (ORDER BY cannot emit before
// seeing every candidate); shard streams close as soon as the merge is
// done with them — at enumeration end, on error, on a pre-run Close,
// or early (closeLosers) once a stream provably cannot contribute.
type orderedRows struct {
	vars  []string
	merge *subjectPuller
	spec  orderedMergeSpec
	owned bool // the emitted rows are the caller's to keep

	started bool
	done    bool
	sc      *mergeScratch
	out     [][]rdf.Term // sorted winners awaiting emission
	next    int          // emission cursor into out
	row     []rdf.Term
	err     error
	trunc   bool
}

// mergeScratch is an ordered merge's working memory: its selector and
// RAND() stream, its DISTINCT filter, the payload slots the selector
// names, slot s at terms[s*w:(s+1)*w] for rows w terms wide, and the
// window in emission order.
type mergeScratch struct {
	sel   sparql.OrderSelector
	rand  sparql.RandStream
	dedup rowDedup
	terms []rdf.Term
	out   [][]rdf.Term
}

// mergeScratchPool recycles merge scratch, as sparql pools an
// execution's state; scratch whose slots outgrew maxPooledMergeTerms —
// an ORDER BY without LIMIT over a large result — is dropped.
var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

const maxPooledMergeTerms = 1 << 13

func newOrderedRows(vars []string, sources []rowsSource, spec orderedMergeSpec, owned bool) *orderedRows {
	return &orderedRows{vars: vars, merge: newSubjectPuller(sources, spec.col), spec: spec, owned: owned}
}

func (r *orderedRows) Vars() []string  { return r.vars }
func (r *orderedRows) Row() []rdf.Term { return r.row }
func (r *orderedRows) Err() error      { return r.err }
func (r *orderedRows) Truncated() bool { return r.trunc }

func (r *orderedRows) Next() bool {
	if r.done {
		return false
	}
	if !r.started {
		r.started = true
		r.run()
	}
	if r.err != nil || r.next >= len(r.out) {
		r.finish()
		return false
	}
	r.row = r.out[r.next]
	r.next++
	return true
}

func (r *orderedRows) Close() {
	if r.done {
		return
	}
	if !r.started {
		// The enumeration never ran: the shard streams are still open.
		r.merge.close()
	}
	r.finish()
}

// finish ends the stream and hands its scratch back, cleared, so that
// the pool pins no rows.
func (r *orderedRows) finish() {
	r.done = true
	r.row, r.out = nil, nil
	if sc := r.sc; sc != nil {
		r.sc = nil
		sc.sel.Release()
		sc.dedup.release()
		if cap(sc.terms) <= maxPooledMergeTerms && cap(sc.out) <= maxPooledMergeTerms {
			clear(sc.terms[:cap(sc.terms)])
			clear(sc.out[:cap(sc.out)])
			sc.terms, sc.out = sc.terms[:0], sc.out[:0]
			mergeScratchPool.Put(sc)
		}
	}
}

// run drives the whole merged enumeration and leaves the selected
// window (offset applied, limit and group cap enforced) in r.out. It
// closes every shard stream before returning.
func (r *orderedRows) run() {
	spec := &r.spec
	// The engine's own case split (Prepared.orderRand): a lone ascending
	// RAND() key is selected on the bare draws, with no key list.
	lone := len(spec.keys) == 1 && spec.keys[0].Rand && !spec.keys[0].Desc
	hasRand := lone
	var desc []bool
	var keys []sparql.Value
	var rowKeys *sparql.RowKeys
	if !lone {
		desc, keys = make([]bool, len(spec.keys)), make([]sparql.Value, len(spec.keys))
		for i, k := range spec.keys {
			desc[i] = k.Desc
			hasRand = hasRand || k.Rand
		}
		rowKeys = sparql.NewRowKeys(spec.keys)
	}
	r.sc = mergeScratchPool.Get().(*mergeScratch)
	sc, w, slots := r.sc, len(r.vars), 0
	sel := &sc.sel
	sel.Reset(desc, spec.orderTotal, lone, spec.offset, spec.limit)
	if sel.Empty() {
		r.trunc = r.merge.truncated()
		r.merge.close()
		return
	}
	if hasRand {
		sc.rand.Seed(spec.seed, spec.text)
	}
	// Early close is sound only without RAND keys (every enumerated row
	// must consume its draw — a closed stream would shift the pairing)
	// and with the ascending subject as the first key, which makes each
	// stream's first-key sequence non-decreasing: once a head's subject
	// orders strictly after the worst kept row's, every later row of
	// that stream loses the first-key comparison outright.
	earlyClose := !hasRand && len(spec.keys) > 0 && spec.keys[0].SubjectKey && !desc[0]

	for {
		row, ok, err := r.merge.next()
		if err != nil {
			r.err = err
			r.merge.close()
			return
		}
		if !ok {
			break
		}
		if spec.distinct && sc.dedup.dup(row) {
			continue
		}
		var slot int
		if lone {
			slot = sel.OfferDraw(sc.rand.Float64())
		} else {
			for i, k := range spec.keys {
				if k.Rand {
					keys[i] = sparql.NumValue(sc.rand.Float64())
				} else {
					keys[i] = rowKeys.Eval(i, row)
				}
			}
			slot = sel.OfferKeys(keys)
		}
		if slot == slots {
			sc.terms = append(sc.terms, row...)
			slots++
		} else if slot >= 0 {
			copy(sc.terms[slot*w:(slot+1)*w], row)
		}
		if earlyClose {
			if worst := sel.Worst(); worst >= 0 {
				r.closeLosers(sc.terms[worst*w : (worst+1)*w])
			}
		}
	}
	r.trunc = r.merge.truncated()
	r.merge.close()

	n := sel.Window()
	if spec.maxRows > 0 && n > spec.maxRows {
		n = spec.maxRows
		r.trunc = true
	}
	var keep []rdf.Term // an owned merge's copy of the window
	if r.owned {
		keep = make([]rdf.Term, 0, n*w)
	}
	for i := range n {
		s := sel.Slot(i)
		row := sc.terms[s*w : (s+1)*w : (s+1)*w]
		if r.owned {
			keep = append(keep, row...)
			row = keep[i*w : (i+1)*w : (i+1)*w]
		}
		sc.out = append(sc.out, row)
	}
	r.out = sc.out
}

// closeLosers closes every stream whose head subject orders strictly
// after the worst kept row's subject (= its first key, since the first
// key is the ascending SubjectKey) — sound under the conditions
// established in run: every later row of such a stream has a subject at
// least as large and a larger enumeration index, so it loses the
// selection outright, and dropping whole loser suffixes preserves the
// relative enumeration order (and so the idx tiebreak) of every
// surviving row.
func (r *orderedRows) closeLosers(worst []rdf.Term) {
	m := r.merge
	pivot := worst[r.spec.col]
	for i, h := range m.heads {
		if h == nil {
			continue
		}
		if h[r.spec.col].Compare(pivot) > 0 {
			m.closeSource(i)
		}
	}
}

var _ endpoint.Rows = (*orderedRows)(nil)
