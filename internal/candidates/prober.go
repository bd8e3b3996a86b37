package candidates

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"sofya/internal/endpoint"
	"sofya/internal/sampling"
)

// Prober answers top-k candidate queries against an Index for source
// relations living on a source endpoint. It holds only immutable
// state — the index, the prepared sampling probe — so any number of
// goroutines may call TopK/ExactTopK on one Prober without
// serializing: each call takes its working memory from scratchPool,
// and nothing is locked while the sampling probe is out at the source
// endpoint.
type Prober struct {
	ix     *Index
	source endpoint.Endpoint
	probe  endpoint.PreparedQuery
}

// scratchPool holds the *probeScratch of every Prober's calls, so that a
// new Prober over an index of the same size — a batch builds one a pass —
// reuses the inventory-length accumulators of the last. A scratch holds
// arrays only: a pool keeps nothing that reaches an index, so a dropped
// index is collected however long the pool lives.
var scratchPool = sync.Pool{New: func() any { return new(probeScratch) }}

// probeScratch is the working memory of one TopK/ExactTopK call.
type probeScratch struct {
	qv   queryVec
	keys []uint64 // sampled query key set
	sig  []uint64 // its minhash signature
	cand []int32  // LSH band-collision pool

	// Dense per-relation accumulators. name[id] and jac[id] are valid
	// only where stamp[id] == epoch — bumping epoch invalidates them all
	// without clearing inventory-length arrays per call — and touched
	// lists those ids in first-touch order.
	name, jac []float64
	stamp     []uint32
	epoch     uint32
	touched   []int32

	ranked []scored
}

// scored is the compact selection key of one touched relation. ix.rels
// is sorted, so comparing ids is comparing relation IRIs.
type scored struct {
	score float64
	id    int32
}

// NewProber prepares the sampling probe for source-relation queries.
func NewProber(ix *Index, source endpoint.Endpoint) (*Prober, error) {
	probe, err := source.Prepare(sampling.TmplSample, "r", "n")
	if err != nil {
		return nil, fmt.Errorf("candidates: preparing source probe against %s: %w", source.Name(), err)
	}
	return &Prober{ix: ix, source: source, probe: probe}, nil
}

// getScratch takes a scratch from scratchPool sized to p's index: its
// arrays resliced when their capacity suffices, made anew otherwise.
// Resliced stamps stay valid — every one is from an earlier epoch of the
// same arrays — so only new arrays start the epochs over.
func (p *Prober) getScratch() *probeScratch {
	n, hashes := p.ix.Len(), p.ix.opt.Hashes
	sc := scratchPool.Get().(*probeScratch)
	if cap(sc.stamp) < n {
		sc.name, sc.jac, sc.stamp, sc.epoch = make([]float64, n), make([]float64, n), make([]uint32, n), 0
	}
	sc.name, sc.jac, sc.stamp = sc.name[:n], sc.jac[:n], sc.stamp[:n]
	sc.sig = slices.Grow(sc.sig[:0], hashes)[:hashes]
	return sc
}

// begin starts a fresh accumulation: no relation is touched.
func (sc *probeScratch) begin() {
	sc.touched = sc.touched[:0]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(sc.stamp[:cap(sc.stamp)])
		sc.epoch = 1
	}
}

// touch zeroes id's accumulators on its first use in this call.
func (sc *probeScratch) touch(id int32) {
	if sc.stamp[id] != sc.epoch {
		sc.stamp[id] = sc.epoch
		sc.name[id], sc.jac[id] = 0, 0
		sc.touched = append(sc.touched, id)
	}
}

// TopK is TopKContext under context.Background(), for bench/'s names.
func (p *Prober) TopK(rel string, k int) ([]Candidate, error) {
	return p.TopKContext(context.Background(), rel, k)
}

// TopKContext returns the top-k candidate target relations for source
// relation rel, its sampling probe sent under ctx, ranked by the blended
// name+signature score (ties broken by relation IRI). Cost is sub-linear
// in the inventory: only posting lists of the query's grams and LSH band
// buckets of the query's signature are touched. The signature channel is
// gated by the pool: a relation that collides with the query in some
// band gets its exact key-set Jaccard (bitwise equal to ExactTopK's); a
// relation that shares name grams but misses every band keeps a zero
// signature component — computing Jaccards for every gram-sharing
// relation would make the probe linear in the inventory on stem-heavy
// namespaces. Name cosines match ExactTopK bitwise, so the LSH band
// selection is the only approximation, and the experiments measure it as
// candidate recall. Ordering is deterministic.
func (p *Prober) TopKContext(ctx context.Context, rel string, k int) ([]Candidate, error) {
	sc := p.getScratch()
	defer scratchPool.Put(sc)
	if err := p.queryState(ctx, sc, rel); err != nil {
		return nil, err
	}
	sc.begin()
	p.ix.name.accumulate(&sc.qv, sc)
	if len(sc.keys) > 0 {
		sc.cand = p.ix.sig.candidates(sc.sig, sc.cand[:0])
		for _, id := range sc.cand {
			sc.touch(id)
			sc.jac[id] = p.ix.sig.exactJaccard(sc.keys, id)
		}
	}
	return p.rank(sc, k), nil
}

// ExactTopK is the all-pairs reference: every indexed relation is
// scored with the exact name cosine and the exact Jaccard over the full
// sampled key sets. Its name scores are bitwise identical to TopK's;
// the signature side is what TopK's minhash estimates approximate. Cost
// is linear in the inventory — the differential experiments use it as
// the unpruned baseline and recall reference.
func (p *Prober) ExactTopK(rel string, k int) ([]Candidate, error) {
	sc := p.getScratch()
	defer scratchPool.Put(sc)
	if err := p.queryState(context.Background(), sc, rel); err != nil {
		return nil, err
	}
	sc.begin()
	for id := int32(0); id < int32(p.ix.Len()); id++ {
		sc.touch(id)
		sc.name[id] = p.ix.name.exactScore(&sc.qv, id)
		sc.jac[id] = p.ix.sig.exactJaccard(sc.keys, id)
	}
	return p.rank(sc, k), nil
}

// queryState samples rel from the source endpoint and derives the
// query-side scoring state into sc: name vector, signature keys,
// minhash signature (meaningful only when keys is non-empty).
func (p *Prober) queryState(ctx context.Context, sc *probeScratch, rel string) error {
	prof := profileOf(rel, p.ix.opt.GramN)
	p.ix.name.queryVector(prof, &sc.qv)
	var err error
	sc.keys, err = appendSampleKeys(ctx, sc.keys[:0], p.probe, rel, p.ix.opt.SampleSize, identityTranslator{})
	if err != nil {
		return fmt.Errorf("candidates: sampling query <%s>: %w", rel, err)
	}
	if len(sc.keys) > 0 {
		minhash(sc.sig, sc.keys, p.ix.sig.seed)
	}
	return nil
}

// rank blends the touched relations' accumulators, orders them by
// (score desc, relation asc), drops zero-score rows, truncates to k
// (k <= 0 keeps all scored rows) and only then builds Candidate values
// — selection runs on 16-byte (score, id) keys however many relations
// the probe touched. When the scored count dwarfs k, a bounded
// min-heap selects the survivors in O(n log k) before the final
// O(k log k) sort; the id tiebreak makes the order strict and total,
// so the selected set (and therefore the output) is identical to a
// full sort.
func (p *Prober) rank(sc *probeScratch, k int) []Candidate {
	nw, sw := p.ix.opt.NameWeight, p.ix.opt.SigWeight
	rows := sc.ranked[:0]
	for _, id := range sc.touched {
		if s := nw*sc.name[id] + sw*sc.jac[id]; s > 0 {
			rows = append(rows, scored{s, id})
		}
	}
	sc.ranked = rows
	if k > 0 && len(rows) > 4*k {
		rows = selectTopK(rows, k)
	}
	slices.SortFunc(rows, compareScored)
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	out := make([]Candidate, len(rows))
	for i, r := range rows {
		out[i] = Candidate{
			Rel:   p.ix.rels[r.id],
			Score: r.score,
			Name:  sc.name[r.id],
			Sig:   sc.jac[r.id],
		}
	}
	return out
}

// compareScored is the strict total candidate order: score descending,
// relation id (= IRI) ascending.
func compareScored(a, b scored) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	return cmp.Compare(a.id, b.id)
}

// selectTopK keeps the k best rows (in unspecified order) via a
// min-heap over the prefix whose root is the worst kept row.
func selectTopK(rows []scored, k int) []scored {
	h := rows[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorstDown(h, i)
	}
	for _, c := range rows[k:] {
		if compareScored(c, h[0]) < 0 {
			h[0] = c
			siftWorstDown(h, 0)
		}
	}
	return h
}

// siftWorstDown restores the heap property at i: every parent orders
// after (is worse than) its children.
func siftWorstDown(h []scored, i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && compareScored(h[worst], h[l]) < 0 {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && compareScored(h[worst], h[r]) < 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}
