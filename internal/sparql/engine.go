package sparql

import (
	"container/list"
	"fmt"
	"sync"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// Result is the outcome of evaluating a query.
type Result struct {
	// Vars are the projected variable names, in projection order.
	Vars []string
	// Rows hold one term per projected variable. A row never contains
	// zero terms for SELECT results produced by this engine (all
	// projected variables are bound by the BGP or the row is dropped).
	Rows [][]rdf.Term
	// Ask is the boolean answer for ASK queries.
	Ask bool
	// Truncated is set by access-limited endpoints when the row cap
	// cut the result short. The engine itself never sets it.
	Truncated bool
}

// Bindings returns row i as a var→term map.
func (r *Result) Bindings(i int) map[string]rdf.Term {
	m := make(map[string]rdf.Term, len(r.Vars))
	for j, v := range r.Vars {
		m[v] = r.Rows[i][j]
	}
	return m
}

// maxCachedPlans bounds the engine's compiled-plan cache. Workloads
// like the SOFYA aligner issue thousands of queries drawn from a
// handful of shapes, so a small LRU captures effectively all of them.
const maxCachedPlans = 256

// Engine evaluates queries against a KB through a three-stage pipeline:
// parse → compile (slot-addressed plan, constants lifted) → exec
// (register-file joins). Compiled plans are cached under an LRU bound
// keyed by query shape, so repeated queries that differ only in their
// constants re-plan nothing; Prepare skips parsing too, and so does
// BindText for a text that is the canonical text of a cached shape
// (skeleton.go).
//
// An Engine is safe for concurrent use. RAND() is deterministic and
// order-independent: each execution draws from a PRNG derived from the
// engine seed and a fingerprint of the canonical query text, so a given
// query sees the same random stream under a given seed no matter which
// other queries ran before or are running concurrently — and no matter
// whether it arrived as text or through a prepared template. This is
// what lets caching and coalescing endpoint decorators, and parallel
// aligners, reproduce the sequential results byte for byte.
type Engine struct {
	kb   *kb.KB
	seed int64

	mu    sync.Mutex
	plans map[string]*list.Element
	order *list.List // front = most recently used
	// texts indexes the cached plans' skeletons by skeletonKey. A slice
	// is never written once stored: a change stores a new one, so a
	// reader matches the one it got without the lock.
	texts map[string][]*skeleton
}

type planEntry struct {
	key  string
	plan *Prepared
	// skels are the entry's skeletons, by spelling; tried marks the
	// spellings a parse has met, whose skeleton is in skels unless it
	// could not be derived.
	skels [4]*skeleton
	tried uint8
}

// NewEngine returns an engine over k with seed 1.
func NewEngine(k *kb.KB) *Engine { return NewEngineSeeded(k, 1) }

// NewEngineSeeded returns an engine with an explicit RAND() seed.
func NewEngineSeeded(k *kb.KB, seed int64) *Engine {
	return &Engine{kb: k, seed: seed, plans: make(map[string]*list.Element), order: list.New(), texts: make(map[string][]*skeleton)}
}

// KB returns the underlying knowledge base.
func (e *Engine) KB() *kb.KB { return e.kb }

// BindText is Prepare for a query text — a template without parameters:
// the handle runs the plan cached for the text's shape, compiled only if
// the shape is new to the engine, on the text's own constants, any
// number of times. A text that is byte for byte the canonical text of a
// cached shape (a Template.Text, a Query.String) is bound without being
// parsed, its constants read off the text; any other text is parsed, and
// an error is Parse's or the compiler's.
func (e *Engine) BindText(text string) (*Prepared, error) {
	if p := e.bindCanonical(text); p != nil {
		return p, nil
	}
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return e.bind(q)
}

// bindCanonical binds a text a cached skeleton matches, or returns nil.
func (e *Engine) bindCanonical(text string) *Prepared {
	key, ok := skeletonKey(text)
	if !ok {
		return nil
	}
	e.mu.Lock()
	cands := e.texts[key]
	e.mu.Unlock()
	var stack [16]Arg
	for _, s := range cands {
		args := stack[:min(s.nargs, len(stack))]
		if s.nargs > len(stack) {
			args = make([]Arg, s.nargs)
		}
		if !s.match(text, args) {
			continue
		}
		e.mu.Lock()
		e.order.MoveToFront(s.el) // a no-op once the entry is evicted
		e.mu.Unlock()
		p := &Prepared{compiled: s.el.Value.(*planEntry).plan.compiled, bound: append(make([]Arg, 0, len(args)), args...)}
		if p.usesRand {
			p.fp = fnv64a(fnvOffset, text)
		}
		return p
	}
	return nil
}

// bind is the handle of a parsed query: the lifted plan of its shape,
// bound to its constants. The first parse of a shape, or of a LIMIT/
// OFFSET spelling of it, teaches the engine its skeleton.
func (e *Engine) bind(q *Query) (*Prepared, error) {
	el, learn, err := e.planFor(q)
	if err != nil {
		return nil, err
	}
	ent := el.Value.(*planEntry)
	if learn {
		e.learn(el, q)
	}
	p := &Prepared{compiled: ent.plan.compiled, bound: liftArgs(q, make([]Arg, 0, len(ent.plan.params)))}
	if p.usesRand {
		p.fp = fnv64a(fnvOffset, q.String())
	}
	return p, nil
}

// Prepare compiles a template into a reusable, parameterized plan —
// the fast path for hot query shapes: no parsing, no planning, no
// string interpolation per call.
func (e *Engine) Prepare(t *Template) (*Prepared, error) {
	return e.compile(t.q, t)
}

// planFor returns the plan-cache element of q's shape, compiling and
// inserting the lifted plan on a miss, and whether q's LIMIT/OFFSET
// spelling is new to it: then the caller is the one to learn its
// skeleton.
func (e *Engine) planFor(q *Query) (el *list.Element, learn bool, err error) {
	switch {
	case q.Where == nil:
		return nil, false, fmt.Errorf("sparql: query has no WHERE pattern")
	case q.LimitVar != "":
		// what compiling the shape says, whether or not it is cached
		return nil, false, fmt.Errorf("sparql: unbound LIMIT parameter $%s", q.LimitVar)
	}
	key := shapeKey(q)
	bit := uint8(1) << spelling(q)
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.plans[key]; ok {
		e.order.MoveToFront(el)
		ent := el.Value.(*planEntry)
		learn, ent.tried = ent.tried&bit == 0, ent.tried|bit
		return el, learn, nil
	}
	p, err := e.compile(q, nil)
	if err != nil {
		return nil, false, err
	}
	el = e.order.PushFront(&planEntry{key: key, plan: p, tried: bit})
	e.plans[key] = el
	for e.order.Len() > maxCachedPlans {
		last := e.order.Back()
		e.order.Remove(last)
		ent := last.Value.(*planEntry)
		delete(e.plans, ent.key)
		for _, s := range ent.skels {
			if s != nil {
				e.unindex(s)
			}
		}
	}
	return el, true, nil
}

// learn derives q's skeleton and stores it with the plan-cache element
// el, unless el was evicted meanwhile.
func (e *Engine) learn(el *list.Element, q *Query) {
	ent := el.Value.(*planEntry)
	s := deriveSkeleton(q, ent.key)
	if s == nil {
		return
	}
	s.el = el
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans[ent.key] != el {
		return
	}
	ent.skels[spelling(q)] = s
	old := e.texts[s.key]
	e.texts[s.key] = append(old[:len(old):len(old)], s)
}

// unindex removes an evicted skeleton from the text index.
func (e *Engine) unindex(s *skeleton) {
	old := e.texts[s.key]
	if len(old) == 1 {
		delete(e.texts, s.key)
		return
	}
	kept := make([]*skeleton, 0, len(old)-1)
	for _, o := range old {
		if o != s {
			kept = append(kept, o)
		}
	}
	e.texts[s.key] = kept
}

// CachedPlans reports how many compiled plans the engine currently
// holds, for tests and diagnostics.
func (e *Engine) CachedPlans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.plans)
}
