package sparql

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// exec.go is the final stage of the parse → compile → exec pipeline:
// it runs a Prepared plan with bindings held in a flat []TermID
// register file — no per-row maps, no string keys — and produces rows
// through one of two cores: an unordered plan streams rows off the join
// tree (streamUnordered), an ORDER BY plan selects its window first
// (selectWindow) and then emits it (windowRow). Exec drains either into
// a Result; Iter (iter.go) hands the same rows to the caller one by one,
// so LIMIT-heavy probes stop paying for rows they discard.

// errStop aborts row enumeration early once LIMIT is satisfied or the
// consumer stops pulling.
var errStop = fmt.Errorf("sparql: enumeration stopped")

// execState is the per-execution scratch of one Prepared run: every
// buffer an execution reads and writes is a field of it. It is the
// engine's, not the caller's: start takes it from execPool and end, once
// the execution has ended, hands it back — so nothing that outlives an
// execution (a Result, its rows, a RowIter, a fresh row) points into it.
type execState struct {
	p    *Prepared
	k    *kb.KB
	regs []kb.TermID // register file; NoTerm = unbound
	res  []kb.TermID // resolved parameter and constant ids
	// rand is the execution's RAND() stream, seeded at start when the
	// plan draws: from the handle's fingerprint for a concrete query, or
	// the hash of its arguments for a template execution
	// (Template.fingerprint) — they are the caller's only for the call
	// that opened the execution, and a stream draws later.
	rand RandStream

	// borrowRow, when non-nil, is the reused projection buffer of an
	// unordered stream (ringRows): every emitted row is written into it
	// instead of a fresh allocation, so the consumer must copy rows it
	// keeps. nil = materialize a fresh row per emission (Exec). Its
	// second use: in RowKeys' state it is the projected row that
	// row-mode key closures read (cexpr.go), so evaluating a merge key
	// adds no field here.
	borrowRow []rdf.Term
	// rows are a stream's row buffers: the one row a borrowed ordered
	// stream writes its window rows into, or the ring of borrowBatch
	// rows an unordered one writes its batches into (ringRows).
	rows []rdf.Term

	// sel and ids are an ordered execution's window, from selectWindow
	// until end: the selector, and the projected ids of its kept rows,
	// one slot of len(projSlot) ids each.
	sel OrderSelector
	ids []kb.TermID

	// bound is the planner's bound-register set (boundRegs), distinct
	// the DISTINCT filter's seen projections.
	bound    []bool
	distinct distinctFilter

	// plans are the execution's plans, one per group (cgroup.ix), and
	// words what they hold: a group's join order and filter steps at its
	// offset (cgroup.off). An EXISTS subgroup is planned on its first
	// evaluation: its bound-register set is fixed by the attachment
	// point, so one plan serves every row.
	plans []plannedGroup
	words []int32
}

// execPool recycles execution states with every buffer they hold: on
// the sampling probes an execution answers a few rows, so its fixed
// state is most of its cost. It is the one pool of the package.
var execPool = sync.Pool{New: func() any { return new(execState) }}

// maxPooledScratch bounds, in elements, a slice that a pooled state
// keeps (a selector's entries, an id arena, a ring of rows): a larger
// one — an ORDER BY without LIMIT over a large result — is dropped, so
// the pool never pins what one outsized execution grew. The sampling
// probes' windows (200 to a few thousand rows) stay far below.
const maxPooledScratch = 1 << 13

// trim empties s for reuse, or drops it once it outgrew
// maxPooledScratch. Clear what s pins before trimming it.
func trim[S ~[]E, E any](s S) S {
	if cap(s) > maxPooledScratch {
		return nil
	}
	return s[:0]
}

// Exec runs the prepared query with positional arguments (one per
// declared template parameter). It is safe for concurrent use.
func (p *Prepared) Exec(args ...Arg) (*Result, error) {
	args, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	return p.exec(args)
}

// start takes an execution state from execPool, sized to the plan, and
// resolves the effective LIMIT and OFFSET for one run. The execution
// owns the state until it ends, when end hands it back.
func (p *Prepared) start(args []Arg) (ex *execState, limit, offset int) {
	ex = execPool.Get().(*execState)
	ex.p, ex.k = p, p.eng.kb
	ex.regs = slices.Grow(ex.regs[:0], p.nslots)[:p.nslots]
	for i := range ex.regs {
		ex.regs[i] = kb.NoTerm
	}
	ex.res = p.resolve(ex.res[:0], args)
	ex.plans = slices.Grow(ex.plans[:0], len(p.groups))[:len(p.groups)]
	ex.words = slices.Grow(ex.words[:0], p.nwords)[:p.nwords]
	if p.usesRand {
		fp := p.fp
		if p.bound == nil {
			fp = p.tmpl.fingerprint(args)
		}
		ex.rand.seed(p.eng.seed, fp)
	}
	limit, offset = p.limit, p.offset
	if p.limitParam >= 0 {
		limit = args[p.limitParam].n
	}
	if p.offsetParam >= 0 {
		offset = args[p.offsetParam].n
	}
	return ex, limit, offset
}

// end is where every execution ends — drained, exhausted, closed or
// failed — and the one place its state is cleared and goes back to
// execPool: what could pin a KB's strings or a plan (rows, selector
// keys, the plans) is cleared, a slice above maxPooledScratch and a
// DISTINCT table above maxPooledDistinct are dropped. Call it exactly
// once per start; the state must not be read afterwards.
func (ex *execState) end() {
	clear(ex.rows)
	clear(ex.plans)
	ex.p, ex.k, ex.borrowRow = nil, nil, nil
	ex.regs, ex.res, ex.rows = trim(ex.regs), trim(ex.res), trim(ex.rows)
	ex.ids, ex.bound = trim(ex.ids), trim(ex.bound)
	ex.plans, ex.words = trim(ex.plans), trim(ex.words)
	ex.sel.Release()
	ex.distinct.release()
	execPool.Put(ex)
}

// exec runs the plan by draining the streaming core.
func (p *Prepared) exec(args []Arg) (*Result, error) {
	ex, limit, offset := p.start(args)
	defer ex.end()

	if p.form == AskForm {
		found := false
		err := ex.runGroup(p.main, func() error {
			found = true
			return errStop
		})
		if err != nil && err != errStop {
			return nil, err
		}
		return &Result{Ask: found}, nil
	}

	res := &Result{Vars: p.vars}
	if len(p.orderBy) > 0 {
		n, err := ex.selectWindow(limit, offset)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			res.Rows = make([][]rdf.Term, n)
		}
		for i := range res.Rows {
			res.Rows[i] = ex.windowRow(i, nil)
		}
		return res, nil
	}
	err := ex.streamUnordered(limit, offset, func(row []rdf.Term) bool {
		res.Rows = append(res.Rows, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runGroup plans the main group against the empty register file,
// applies its pre-step filters and enumerates matches.
func (ex *execState) runGroup(g *cgroup, emit func() error) error {
	pl := ex.plan(g)
	if !ex.filtersPass(g, pl, 0) {
		return nil
	}
	return ex.join(g, pl, 0, emit)
}

// boundRegs returns the state's bound-register set: which registers
// hold a value. The planner marks it as it binds patterns.
func (ex *execState) boundRegs() []bool {
	ex.bound = slices.Grow(ex.bound[:0], len(ex.regs))[:len(ex.regs)]
	for i, v := range ex.regs {
		ex.bound[i] = v != kb.NoTerm
	}
	return ex.bound
}

// distinctFilter dedups rows on the projected register snapshot. The
// zero value is empty.
type distinctFilter struct {
	seen   map[string]struct{}
	keyBuf []byte
}

// maxPooledDistinct bounds the entries of a DISTINCT table that a
// pooled state keeps: a larger one is dropped, not cleared, so the pool
// never pins a large table.
const maxPooledDistinct = 1 << 8

// dup records the current projection and reports whether it was already
// emitted.
func (d *distinctFilter) dup(ex *execState) bool {
	d.keyBuf = d.keyBuf[:0]
	for _, s := range ex.p.projSlot {
		d.keyBuf = binary.LittleEndian.AppendUint32(d.keyBuf, uint32(ex.regs[s]))
	}
	if _, dup := d.seen[string(d.keyBuf)]; dup {
		return true
	}
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	d.seen[string(d.keyBuf)] = struct{}{}
	return false
}

// release empties the filter, dropping a table above maxPooledDistinct.
func (d *distinctFilter) release() {
	if len(d.seen) > maxPooledDistinct {
		d.seen = nil
	}
	clear(d.seen)
}

// projectRow materializes the projected registers as a term row: a
// fresh slice per call, or the execution's reused borrow buffer.
func (ex *execState) projectRow() []rdf.Term {
	row := ex.borrowRow
	if row == nil {
		row = make([]rdf.Term, len(ex.p.projSlot))
	}
	for i, s := range ex.p.projSlot {
		row[i] = ex.k.Term(ex.regs[s])
	}
	return row
}

// streamUnordered streams the rows of a plan without ORDER BY straight
// off the join tree, calling yield for each: DISTINCT filtering and
// OFFSET skipping happen inline and LIMIT is an early exit that aborts
// the join, so only the yielded rows are ever materialized. Enumeration
// aborts as soon as yield returns false, so a consumer that stops
// pulling stops paying.
func (ex *execState) streamUnordered(limit, offset int, yield func([]rdf.Term) bool) error {
	if !ex.p.projOK || limit == 0 {
		// A projected variable the pattern never binds drops every row.
		return nil
	}
	p := ex.p
	skipped, emitted := 0, 0
	err := ex.runGroup(p.main, func() error {
		if p.distinct && ex.distinct.dup(ex) {
			return nil
		}
		if skipped < offset {
			skipped++
			return nil
		}
		if !yield(ex.projectRow()) {
			return errStop
		}
		emitted++
		if limit >= 0 && emitted >= limit {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return err
	}
	return nil
}

// selectWindow is the selection half of an ordered execution: it
// enumerates all matches (ORDER BY needs every row's keys, and RAND()
// keys must be drawn in enumeration order) and keeps the window
// OrderSelector picks — the selection the federation merge runs too
// (topk.go). Each row that survives DISTINCT consumes its draw or has
// its keys evaluated, in enumeration order; an admitted row's projected
// ids go into its slot of one flat arena (at most offset+limit slots on
// the bounded selections, however many rows match), and no term is
// materialized. It returns the window's row count; windowRow emits them
// until end.
func (ex *execState) selectWindow(limit, offset int) (int, error) {
	p := ex.p
	if !p.projOK {
		return 0, nil
	}
	sel := &ex.sel
	sel.Reset(p.orderDesc, p.orderTotal, p.orderRand, offset, limit)
	if sel.Empty() {
		return 0, nil
	}
	var keys []Value
	if !p.orderRand {
		keys = make([]Value, len(p.orderKeys))
	}
	w := len(p.projSlot)
	err := ex.runGroup(p.main, func() error {
		if p.distinct && ex.distinct.dup(ex) {
			return nil
		}
		var slot int
		if p.orderRand {
			slot = sel.OfferDraw(ex.rand.Float64())
		} else {
			for i, kf := range p.orderKeys {
				keys[i] = kf(ex)
			}
			slot = sel.OfferKeys(keys)
		}
		if slot < 0 {
			return nil
		}
		if slot*w == len(ex.ids) {
			ex.ids = slices.Grow(ex.ids, w)[:len(ex.ids)+w]
		}
		for i, s := range p.projSlot {
			ex.ids[slot*w+i] = ex.regs[s]
		}
		return nil
	})
	if err != nil && err != errStop {
		return 0, err
	}
	return sel.Window(), nil
}

// windowRow is the emission half of an ordered execution: it writes the
// terms of the window's i-th row into row — a fresh row when row is nil
// — and returns it.
func (ex *execState) windowRow(i int, row []rdf.Term) []rdf.Term {
	w := len(ex.p.projSlot)
	if row == nil {
		row = make([]rdf.Term, w)
	}
	for j, id := range ex.ids[ex.sel.Slot(i)*w:][:w] {
		row[j] = ex.k.Term(id)
	}
	return row
}

// join recurses over the planned steps, applying the filters placed
// after each step before descending.
func (ex *execState) join(g *cgroup, pl *plannedGroup, step int, emit func() error) error {
	if step == len(pl.order) {
		return emit()
	}
	return ex.match(g.pats[pl.order[step]], func() error {
		if !ex.filtersPass(g, pl, step+1) {
			return nil
		}
		return ex.join(g, pl, step+1, emit)
	})
}

// filtersPass evaluates, in filter order, g's filters that pl places
// after step steps, and reports whether the current bindings pass them
// all.
func (ex *execState) filtersPass(g *cgroup, pl *plannedGroup, step int) bool {
	for fi, at := range pl.at {
		if int(at) != step {
			continue
		}
		if ok, valid := g.filters[fi].pred(ex); !valid || !ok {
			return false
		}
	}
	return true
}

// match enumerates KB facts matching tp under the current registers,
// binding free slots for the duration of each found() call. The case
// analysis and iteration orders mirror the reference evaluator, which
// is what keeps enumeration — and thus RAND() pairing — identical.
func (ex *execState) match(tp cpattern, found func() error) error {
	resolve := func(ct cterm) (kb.TermID, int32, bool) {
		if !ct.isVar {
			return ex.res[ct.res], -1, true // may be NoTerm: no matches
		}
		if v := ex.regs[ct.slot]; v != kb.NoTerm {
			return v, ct.slot, true
		}
		return kb.NoTerm, ct.slot, false
	}
	sID, sSlot, sBound := resolve(tp.s)
	pID, pSlot, pBound := resolve(tp.p)
	oID, oSlot, oBound := resolve(tp.o)

	// a concrete term unknown to the KB can never match
	if (sBound && sID == kb.NoTerm) || (pBound && pID == kb.NoTerm) || (oBound && oID == kb.NoTerm) {
		return nil
	}

	k := ex.k
	// try binds the still-free slots to the candidate fact, checking
	// duplicate-variable consistency (?x p ?x).
	try := func(s, p, o kb.TermID) error {
		var newSlots [3]int32
		n := 0
		bind := func(slot int32, id kb.TermID) bool {
			if prev := ex.regs[slot]; prev != kb.NoTerm {
				return prev == id
			}
			ex.regs[slot] = id
			newSlots[n] = slot
			n++
			return true
		}
		ok := true
		if !sBound {
			ok = bind(sSlot, s)
		}
		if ok && !pBound {
			ok = bind(pSlot, p)
		}
		if ok && !oBound {
			ok = bind(oSlot, o)
		}
		var err error
		if ok {
			err = found()
		}
		for i := 0; i < n; i++ {
			ex.regs[newSlots[i]] = kb.NoTerm
		}
		return err
	}

	switch {
	case sBound && pBound && oBound:
		if k.HasFact(sID, pID, oID) {
			return try(sID, pID, oID)
		}
		return nil
	case sBound && pBound:
		for _, o := range k.ObjectsOf(sID, pID) {
			if err := try(sID, pID, o); err != nil {
				return err
			}
		}
		return nil
	case pBound && oBound:
		for _, s := range k.SubjectsOf(pID, oID) {
			if err := try(s, pID, oID); err != nil {
				return err
			}
		}
		return nil
	case sBound && oBound:
		var outerErr error
		k.EachPredicateBetween(sID, oID, func(p kb.TermID) bool {
			if err := try(sID, p, oID); err != nil {
				outerErr = err
				return false
			}
			return true
		})
		return outerErr
	case sBound:
		for _, p := range k.PredicatesOfSubject(sID) {
			for _, o := range k.ObjectsOf(sID, p) {
				if err := try(sID, p, o); err != nil {
					return err
				}
			}
		}
		return nil
	case pBound:
		var outerErr error
		k.EachFactOf(pID, func(s, o kb.TermID) bool {
			if err := try(s, pID, o); err != nil {
				outerErr = err
				return false
			}
			return true
		})
		return outerErr
	case oBound:
		for _, p := range k.Relations() {
			for _, s := range k.SubjectsOf(p, oID) {
				if err := try(s, p, oID); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		for _, p := range k.Relations() {
			var outerErr error
			k.EachFactOf(p, func(s, o kb.TermID) bool {
				if err := try(s, p, o); err != nil {
					outerErr = err
					return false
				}
				return true
			})
			if outerErr != nil {
				return outerErr
			}
		}
		return nil
	}
}

// runExists probes a compiled EXISTS subgroup against the current
// registers — the nested compiled probe a lowered [NOT] EXISTS closure
// (cexpr.go) dispatches to. The subgroup's plan is computed on first
// evaluation and reused: the bound-register set at an attachment point
// is invariant across rows.
func (ex *execState) runExists(cg *cgroup) (bool, error) {
	if cg == nil {
		return false, fmt.Errorf("sparql: EXISTS group was not compiled")
	}
	pl := &ex.plans[cg.ix]
	if !pl.done {
		pl = ex.plan(cg)
	}
	if !ex.filtersPass(cg, pl, 0) {
		return false, nil
	}
	found := false
	err := ex.join(cg, pl, 0, func() error {
		found = true
		return errStop
	})
	if err != nil && err != errStop {
		return false, err
	}
	return found, nil
}
