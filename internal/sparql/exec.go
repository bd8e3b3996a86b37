package sparql

import (
	"encoding/binary"
	"fmt"
	"math/rand"
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

// execState is the per-execution scratch of one Prepared run. It is the
// engine's, not the caller's: start takes it from execPool and end, once
// the execution has ended, hands it back — so nothing that outlives an
// execution (a Result, its rows, a RowIter, a fresh row) points into it.
type execState struct {
	p    *Prepared
	k    *kb.KB
	regs []kb.TermID // register file; NoTerm = unbound
	res  []kb.TermID // resolved parameter and constant ids
	rnd  *rand.Rand
	// fp is the execution's RAND() fingerprint, taken at start when the
	// plan draws: a concrete query's handle holds it, a template
	// execution hashes its arguments (Template.fingerprint) — they are
	// the caller's only for the call that opened the execution, and a
	// stream draws later.
	fp uint64

	// borrowRow, when non-nil, is the reused projection buffer of a
	// borrowed-row unordered stream (Prepared.IterBorrowed): every
	// emitted row is written into it instead of a fresh allocation, so
	// the consumer must copy rows it keeps. nil = materialize a fresh row
	// per emission (the default contract). Its second use: in RowKeys'
	// state it is the projected row that row-mode key closures read
	// (cexpr.go), so evaluating a merge key adds no field here.
	borrowRow []rdf.Term
	// rowBuf is the one row a borrowed ordered stream writes its window
	// rows into; it is kept, cleared, with the state.
	rowBuf []rdf.Term

	// sel and ids are an ordered execution's window, from selectWindow
	// until releaseWindow: the selector, and the projected ids of its
	// kept rows, one slot of len(projSlot) ids each. Both are pooled.
	sel *OrderSelector
	ids *[]kb.TermID

	// planned caches per-execution join orders of EXISTS subgroups;
	// their bound-register set is fixed by the attachment point, so one
	// plan serves every row. The map is kept, emptied, with the state.
	planned map[*cgroup]*plannedGroup
}

// execPool recycles execution states, register file, resolved ids,
// row buffer and EXISTS plans included: on the sampling probes an
// execution answers a few rows, so its fixed state is most of its cost.
var execPool = sync.Pool{New: func() any { return new(execState) }}

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
	ex.fp = 0
	if p.usesRand {
		ex.fp = p.fp
		if p.bound == nil {
			ex.fp = p.tmpl.fingerprint(args)
		}
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
// failed — and the one place its state goes back to execPool: the PRNG
// and the window go back to theirs first, the row buffer is cleared so
// that the pool pins no KB's strings, and a slice above maxPooledScratch
// is dropped. Call it exactly once per start; the state must not be read
// afterwards.
func (ex *execState) end() {
	ex.releaseRand()
	ex.releaseWindow()
	clear(ex.rowBuf)
	clear(ex.planned)
	ex.p, ex.k, ex.borrowRow = nil, nil, nil
	if cap(ex.regs) > maxPooledScratch {
		ex.regs = nil
	}
	if cap(ex.res) > maxPooledScratch {
		ex.res = nil
	}
	if cap(ex.rowBuf) > maxPooledScratch {
		ex.rowBuf = nil
	}
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
	bound := make([]bool, len(ex.regs))
	pl := ex.planGroup(g, bound)
	for _, fi := range pl.pre {
		ok, valid := g.filters[fi].pred(ex)
		if !valid || !ok {
			return nil
		}
	}
	return ex.join(g, &pl, 0, emit)
}

// distinctFilter dedups rows on the projected register snapshot.
type distinctFilter struct {
	seen   map[string]struct{}
	keyBuf []byte
}

func newDistinctFilter(n int) *distinctFilter {
	return &distinctFilter{seen: make(map[string]struct{}), keyBuf: make([]byte, 4*n)}
}

// dup records the current projection and reports whether it was already
// emitted.
func (d *distinctFilter) dup(ex *execState) bool {
	for i, s := range ex.p.projSlot {
		binary.LittleEndian.PutUint32(d.keyBuf[4*i:], uint32(ex.regs[s]))
	}
	if _, dup := d.seen[string(d.keyBuf)]; dup {
		return true
	}
	d.seen[string(d.keyBuf)] = struct{}{}
	return false
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
	var distinct *distinctFilter
	if p.distinct {
		distinct = newDistinctFilter(len(p.projSlot))
	}
	skipped, emitted := 0, 0
	err := ex.runGroup(p.main, func() error {
		if distinct != nil && distinct.dup(ex) {
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

// idPool recycles the id arenas of ordered executions, as selectorPool
// does their selectors.
var idPool = sync.Pool{New: func() any { return new([]kb.TermID) }}

// selectWindow is the selection half of an ordered execution: it
// enumerates all matches (ORDER BY needs every row's keys, and RAND()
// keys must be drawn in enumeration order) and keeps the window
// OrderSelector picks — the selection the federation merge runs too
// (topk.go). Each row that survives DISTINCT consumes its draw or has
// its keys evaluated, in enumeration order; an admitted row's projected
// ids go into its slot of one flat arena (at most offset+limit slots on
// the bounded selections, however many rows match), and no term is
// materialized. It returns the window's row count; windowRow emits them,
// and end must follow once the last is read, or the execution is
// abandoned. On failure the window is already released.
func (ex *execState) selectWindow(limit, offset int) (int, error) {
	defer ex.releaseRand() // the enumeration draws all there is to draw
	p := ex.p
	if !p.projOK {
		return 0, nil
	}
	sel := NewOrderSelector(p.orderDesc, p.orderTotal, p.orderRand, offset, limit)
	ex.sel = sel
	if sel.Empty() {
		return 0, nil
	}
	ex.ids = idPool.Get().(*[]kb.TermID)
	var distinct *distinctFilter
	if p.distinct {
		distinct = newDistinctFilter(len(p.projSlot))
	}
	var keys []Value
	if !p.orderRand {
		keys = make([]Value, len(p.orderKeys))
	}
	w := len(p.projSlot)
	err := ex.runGroup(p.main, func() error {
		if distinct != nil && distinct.dup(ex) {
			return nil
		}
		var slot int
		if p.orderRand {
			slot = sel.OfferDraw(ex.rng().Float64())
		} else {
			for i, kf := range p.orderKeys {
				keys[i] = kf(ex)
			}
			slot = sel.OfferKeys(keys)
		}
		if slot < 0 {
			return nil
		}
		ids := *ex.ids
		if slot*w == len(ids) {
			ids = slices.Grow(ids, w)[:len(ids)+w]
			*ex.ids = ids
		}
		for i, s := range p.projSlot {
			ids[slot*w+i] = ex.regs[s]
		}
		return nil
	})
	if err != nil && err != errStop {
		ex.releaseWindow()
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
	for j, id := range (*ex.ids)[ex.sel.Slot(i)*w:][:w] {
		row[j] = ex.k.Term(id)
	}
	return row
}

// releaseWindow hands an ordered execution's selector and id arena back
// to their pools — an arena above maxPooledScratch is dropped — when the
// selection fails or the execution ends. It is idempotent; no windowRow
// may follow.
func (ex *execState) releaseWindow() {
	if ex.sel != nil {
		ex.sel.Release()
		ex.sel = nil
	}
	if ex.ids != nil {
		if cap(*ex.ids) <= maxPooledScratch {
			*ex.ids = (*ex.ids)[:0]
			idPool.Put(ex.ids)
		}
		ex.ids = nil
	}
}

// join recurses over the planned steps, applying each step's attached
// filters before descending.
func (ex *execState) join(g *cgroup, pl *plannedGroup, step int, emit func() error) error {
	if step == len(pl.order) {
		return emit()
	}
	tp := g.pats[pl.order[step]]
	var after []int32
	if pl.after != nil {
		after = pl.after[step]
	}
	return ex.match(tp, func() error {
		for _, fi := range after {
			ok, valid := g.filters[fi].pred(ex)
			if !valid || !ok {
				return nil
			}
		}
		return ex.join(g, pl, step+1, emit)
	})
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

// randPool recycles PRNG states: a rand.Rand over a lazySource is
// 4.9 KiB, and every RAND() execution needs one.
var randPool = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// fnvOffset is the FNV-64a offset basis, the hash of no bytes.
const fnvOffset = 14695981039346656037

// fnv64a extends the FNV-64a hash h over the bytes of s.
func fnv64a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// randSource derives the deterministic PRNG of one query execution from
// the engine seed and fp, the FNV-64a hash of the canonical query text.
// It is the single definition of the RAND() stream: the execution path
// (rng) and the federation merge layer (RandFloats) both draw from it,
// which is what keeps sharded RAND() results byte-identical to unsharded
// ones. The state comes from randPool — a lazySource, which gives the
// standard source's draws for the seed but makes only the words they
// read — and the caller hands it back with randPool.Put when done.
func randSource(seed int64, fp uint64) *rand.Rand {
	r := randPool.Get().(*rand.Rand)
	r.Seed(seed*1_000_003 ^ int64(fp))
	return r
}

// rng derives the execution's PRNG on first use, exactly like the
// reference engine: an execution that never draws pays no PRNG seeding.
func (ex *execState) rng() *rand.Rand {
	if ex.rnd == nil {
		ex.rnd = randSource(ex.p.eng.seed, ex.fp)
	}
	return ex.rnd
}

// releaseRand returns the execution's PRNG, if it drew one, to the
// pool. The execution must not draw afterwards.
func (ex *execState) releaseRand() {
	if ex.rnd != nil {
		randPool.Put(ex.rnd)
		ex.rnd = nil
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
	if ex.planned == nil {
		ex.planned = make(map[*cgroup]*plannedGroup, 2)
	}
	pl := ex.planned[cg]
	if pl == nil {
		bound := make([]bool, len(ex.regs))
		for i, v := range ex.regs {
			bound[i] = v != kb.NoTerm
		}
		planned := ex.planGroup(cg, bound)
		pl = &planned
		ex.planned[cg] = pl
	}
	for _, fi := range pl.pre {
		ok, valid := cg.filters[fi].pred(ex)
		if !valid || !ok {
			return false, nil
		}
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
