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

// Engine evaluates parsed queries against a KB through a three-stage
// pipeline: parse → compile (slot-addressed plan, constants lifted) →
// exec (register-file joins). Compiled plans are cached under an LRU
// bound keyed by query shape, so repeated queries that differ only in
// their constants re-plan nothing; Prepare skips parsing too.
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
}

type planEntry struct {
	key  string
	plan *Prepared
}

// NewEngine returns an engine over k with seed 1.
func NewEngine(k *kb.KB) *Engine { return NewEngineSeeded(k, 1) }

// NewEngineSeeded returns an engine with an explicit RAND() seed.
func NewEngineSeeded(k *kb.KB, seed int64) *Engine {
	return &Engine{kb: k, seed: seed, plans: make(map[string]*list.Element), order: list.New()}
}

// KB returns the underlying knowledge base.
func (e *Engine) KB() *kb.KB { return e.kb }

// Bind is Prepare for a concrete query — a template without parameters:
// the handle runs the plan cached for the query's shape, compiled only
// if the shape is new to the engine, on the query's own constants, any
// number of times.
func (e *Engine) Bind(q *Query) (*Prepared, error) {
	p, err := e.planFor(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{compiled: p.compiled, q: q, bound: liftArgs(q, make([]Arg, 0, len(p.params)))}, nil
}

// Prepare compiles a template into a reusable, parameterized plan —
// the fast path for hot query shapes: no parsing, no planning, no
// string interpolation per call.
func (e *Engine) Prepare(t *Template) (*Prepared, error) {
	return e.compile(t.q, t)
}

// planFor returns the cached lifted plan for q's shape, compiling and
// inserting it on a miss.
func (e *Engine) planFor(q *Query) (*Prepared, error) {
	if q.Where == nil {
		return nil, fmt.Errorf("sparql: query has no WHERE pattern")
	}
	key := shapeKey(q)
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.plans[key]; ok {
		e.order.MoveToFront(el)
		return el.Value.(*planEntry).plan, nil
	}
	p, err := e.compile(q, nil)
	if err != nil {
		return nil, err
	}
	e.plans[key] = e.order.PushFront(&planEntry{key: key, plan: p})
	for e.order.Len() > maxCachedPlans {
		last := e.order.Back()
		e.order.Remove(last)
		delete(e.plans, last.Value.(*planEntry).key)
	}
	return p, nil
}

// CachedPlans reports how many compiled plans the engine currently
// holds, for tests and diagnostics.
func (e *Engine) CachedPlans() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.plans)
}
