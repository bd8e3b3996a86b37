package kb

import "sort"

// frozen is the read index every KB read serves from: SPO, POS and PSO
// as CSR-style postings (dense arrays plus offset tables) with
// binary-search lookups.
//
// Layout, for an index X → key → posting list:
//
//	off[x] .. off[x+1]      range of key entries for top-level id x
//	keys[e]                 e-th key entry (sorted by term order)
//	post[e] .. post[e+1]    posting range of entry e in the value array
//
// Key entries are sorted by term and postings keep insertion order, so
// an index built at any point of a load answers like one built at its
// end, restricted to the facts it has seen.
type frozen struct {
	// rank[id] is the position of term id in the global term sort order;
	// comparing ranks is equivalent to comparing terms.
	rank []int32

	// SPO: subject → predicate entries → object postings.
	spoOff  []int32
	spoPred []TermID
	spoPost []int32
	spoObj  []TermID

	// POS: predicate → object entries → subject postings.
	posOff  []int32
	posObjE []TermID
	posPost []int32
	posSub  []TermID

	// PSO: predicate → subject entries → object postings.
	psoOff  []int32
	psoSubE []TermID
	psoPost []int32
	psoObj  []TermID

	// relations is every predicate with at least one fact, term-sorted.
	relations []TermID
}

// Freeze builds the read index now rather than on the first read, so
// the first query does not pay for it. It is idempotent.
func (k *KB) Freeze() { k.index() }

// index returns the read index, building it from the fact log when a
// mutation dropped it (or none was built yet). It stays small enough to
// inline, so a read pays one atomic load and a nil test.
func (k *KB) index() *frozen {
	if fr := k.fr.Load(); fr != nil {
		return fr
	}
	return k.build()
}

// build derives the three indexes from the log and installs them.
// Concurrent first reads build them once.
func (k *KB) build() *frozen {
	k.mu.Lock()
	defer k.mu.Unlock()
	if fr := k.fr.Load(); fr != nil {
		return fr
	}
	nt := len(k.terms)
	fr := &frozen{rank: make([]int32, nt)}
	byTerm := make([]TermID, nt)
	for i := range byTerm {
		byTerm[i] = TermID(i)
	}
	sort.Slice(byTerm, func(i, j int) bool {
		return k.terms[byTerm[i]].Compare(k.terms[byTerm[j]]) < 0
	})
	for r, id := range byTerm {
		fr.rank[id] = int32(r)
	}

	const s, p, o = 0, 1, 2
	fr.spoOff, fr.spoPred, fr.spoPost, fr.spoObj = fr.csr(k.log, s, p, o)
	fr.posOff, fr.posObjE, fr.posPost, fr.posSub = fr.csr(k.log, p, o, s)
	fr.psoOff, fr.psoSubE, fr.psoPost, fr.psoObj = fr.csr(k.log, p, s, o)
	for _, id := range byTerm {
		if fr.psoOff[id] < fr.psoOff[id+1] {
			fr.relations = append(fr.relations, id)
		}
	}
	k.fr.Store(fr)
	return fr
}

// csr builds one index over log: top-level id f[x], key entries f[e] in
// term order, postings f[v] in log order. Two stable counting sorts —
// by the rank of f[e], then by f[x] — order the facts by (x, rank of
// e, log position) in linear time.
func (fr *frozen) csr(log []fact, x, e, v int) (off []int32, keys []TermID, post []int32, vals []TermID) {
	nt := len(fr.rank)
	byRank := countingSort(log, nt, func(f fact) int { return int(fr.rank[f[e]]) })
	sorted := countingSort(byRank, nt, func(f fact) int { return int(f[x]) })

	off = make([]int32, nt+1)
	post = []int32{0}
	vals = make([]TermID, len(sorted))
	for i, f := range sorted {
		if i == 0 || f[x] != sorted[i-1][x] || f[e] != sorted[i-1][e] {
			if i > 0 {
				post = append(post, int32(i))
			}
			keys = append(keys, f[e])
			off[f[x]+1]++
		}
		vals[i] = f[v]
	}
	if len(sorted) > 0 {
		post = append(post, int32(len(sorted)))
	}
	for i := 0; i < nt; i++ {
		off[i+1] += off[i]
	}
	return off, keys, post, vals
}

// countingSort returns facts stably ordered by key, which must lie in
// [0, n).
func countingSort(facts []fact, n int, key func(fact) int) []fact {
	start := make([]int, n+1)
	for _, f := range facts {
		start[key(f)+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	out := make([]fact, len(facts))
	for _, f := range facts {
		c := key(f)
		out[start[c]] = f
		start[c]++
	}
	return out
}

// findEntry binary-searches the key entries keys[lo:hi] (sorted by term
// rank) for key, returning the entry index or -1.
func (fr *frozen) findEntry(keys []TermID, lo, hi int32, key TermID) int32 {
	if !fr.inRange(key) {
		return -1
	}
	r := fr.rank[key]
	end := hi
	for lo < hi {
		mid := (lo + hi) / 2
		if fr.rank[keys[mid]] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && keys[lo] == key {
		return lo
	}
	return -1
}

// inRange reports whether id is a term of the index (NoTerm is not).
func (fr *frozen) inRange(id TermID) bool { return id >= 0 && int(id) < len(fr.rank) }
