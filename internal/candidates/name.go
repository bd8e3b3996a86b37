package candidates

import (
	"math"
	"sort"

	"sofya/internal/strsim"
)

// nameIndex is the character-trigram side of the Index: an inverted
// index from grams to the relations whose local name contains them,
// with idf-weighted, L2-normalized posting weights laid out CSR-style.
//
// Scoring discipline: a relation's name score is the cosine between the
// query's and the relation's weight vectors, and both the inverted
// accumulation and the exact all-pairs scorer add the shared grams'
// contributions in ascending gram order — so the two paths produce
// bitwise-identical floats and the name signal contributes nothing to
// the approximation gap.
type nameIndex struct {
	// grams is the sorted gram vocabulary; gram ids index it.
	grams []string
	// df[g] is the number of relations containing gram g at least once.
	df []int32
	// idf[g] = log(1 + N/df); 0 for stop grams.
	idf []float64
	// stopDF is the document-frequency cutoff: grams with df >= stopDF
	// are stop grams, dropped from postings, queries and exact scoring.
	stopDF int32

	// CSR postings: for gram g, postRel/postW[gramStart[g]:gramStart[g+1]]
	// list the relations containing g (ascending id) with their
	// normalized weights.
	gramStart []int32
	postRel   []int32
	postW     []float64

	// relVec is each relation's sorted (gram id, weight) vector over
	// non-stop grams, CSR again — the exact scorer's operand.
	relStart []int32
	relGram  []int32
	relW     []float64
}

// stopCutoff is the stop-gram document-frequency cutoff for an
// inventory of n relations: MaxGramFrac of the inventory, floored at
// 32. Shared with the sidecar decoder, which cross-checks the stored
// cutoff against it.
func stopCutoff(n int, maxGramFrac float64) int32 {
	cut := int32(float64(n) * maxGramFrac)
	if cut < 32 {
		cut = 32
	}
	return cut
}

// buildNameIndex derives the trigram index from ix.rels.
func (ix *Index) buildNameIndex() {
	n := &ix.name
	N := len(ix.rels)
	relProfs := make([]*strsim.Profile, N)
	gramID := map[string]int32{}
	for i, rel := range ix.rels {
		p := profileOf(rel, ix.opt.GramN)
		relProfs[i] = p
		for _, g := range p.Grams {
			if _, ok := gramID[g]; !ok {
				gramID[g] = 0 // id assigned after sorting
			}
		}
	}
	n.grams = make([]string, 0, len(gramID))
	for g := range gramID {
		n.grams = append(n.grams, g)
	}
	sort.Strings(n.grams)
	for id, g := range n.grams {
		gramID[g] = int32(id)
	}

	n.df = make([]int32, len(n.grams))
	for _, p := range relProfs {
		for _, g := range p.Grams {
			n.df[gramID[g]]++
		}
	}
	n.stopDF = stopCutoff(N, ix.opt.MaxGramFrac)
	n.idf = make([]float64, len(n.grams))
	for g, df := range n.df {
		if df >= n.stopDF {
			continue // stop gram
		}
		n.idf[g] = math.Log(1 + float64(N)/float64(df))
	}

	// Per-relation weight vectors over non-stop grams, L2-normalized.
	n.relStart = make([]int32, N+1)
	for i, p := range relProfs {
		n.relStart[i+1] = n.relStart[i]
		for _, g := range p.Grams {
			if n.df[gramID[g]] < n.stopDF {
				n.relStart[i+1]++
			}
		}
	}
	n.relGram = make([]int32, n.relStart[N])
	n.relW = make([]float64, n.relStart[N])
	for i, p := range relProfs {
		at := n.relStart[i]
		norm := 0.0
		for j, g := range p.Grams {
			id := gramID[g]
			if n.df[id] >= n.stopDF {
				continue
			}
			w := float64(p.Counts[j]) * n.idf[id]
			n.relGram[at] = id
			n.relW[at] = w
			norm += w * w
			at++
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for j := n.relStart[i]; j < at; j++ {
				n.relW[j] /= norm
			}
		}
		// Profile grams are sorted, and gram ids are assigned in sorted
		// gram order, so relGram is ascending without re-sorting.
	}

	// Invert: postings per gram, relations ascending.
	n.gramStart = make([]int32, len(n.grams)+1)
	for i := 0; i < N; i++ {
		for j := n.relStart[i]; j < n.relStart[i+1]; j++ {
			n.gramStart[n.relGram[j]+1]++
		}
	}
	for g := 0; g < len(n.grams); g++ {
		n.gramStart[g+1] += n.gramStart[g]
	}
	n.postRel = make([]int32, n.relStart[N])
	n.postW = make([]float64, n.relStart[N])
	fill := append([]int32(nil), n.gramStart[:len(n.grams)]...)
	for i := 0; i < N; i++ {
		for j := n.relStart[i]; j < n.relStart[i+1]; j++ {
			g := n.relGram[j]
			n.postRel[fill[g]] = int32(i)
			n.postW[fill[g]] = n.relW[j]
			fill[g]++
		}
	}

	if ix.opt.MaxPostings > 0 {
		ix.truncatePostings(ix.opt.MaxPostings)
	}
}

// truncatePostings caps every gram's posting list at max entries,
// keeping the highest-weight relations (ties broken by ascending
// relation id) and preserving the ascending-id layout of the
// survivors. Stem-heavy namespaces concentrate document frequency just
// below the stop-gram cutoff — posting lists the stop filter keeps but
// a probe still has to walk in full; the cap bounds that walk. The
// per-relation vectors are untouched, so exactScore (and with it the
// exact reference scorer) is unaffected; only the inverted probe's
// reach narrows, which experiment E9 measures as candidate recall.
func (ix *Index) truncatePostings(max int) {
	n := &ix.name
	type post struct {
		rel int32
		w   float64
	}
	var scratch []post
	newStart := make([]int32, len(n.gramStart))
	w := int32(0)
	for g := 0; g < len(n.grams); g++ {
		lo, hi := n.gramStart[g], n.gramStart[g+1]
		newStart[g] = w
		if int(hi-lo) <= max {
			copy(n.postRel[w:], n.postRel[lo:hi])
			copy(n.postW[w:], n.postW[lo:hi])
			w += hi - lo
			continue
		}
		scratch = scratch[:0]
		for j := lo; j < hi; j++ {
			scratch = append(scratch, post{n.postRel[j], n.postW[j]})
		}
		// Highest weight first; relation id breaks ties, so the kept
		// set is deterministic.
		sort.Slice(scratch, func(a, b int) bool {
			if scratch[a].w != scratch[b].w {
				return scratch[a].w > scratch[b].w
			}
			return scratch[a].rel < scratch[b].rel
		})
		kept := scratch[:max]
		sort.Slice(kept, func(a, b int) bool { return kept[a].rel < kept[b].rel })
		for _, p := range kept {
			n.postRel[w] = p.rel
			n.postW[w] = p.w
			w++
		}
		ix.truncGrams++
		ix.truncPostings += int(hi-lo) - max
	}
	newStart[len(n.grams)] = w
	n.gramStart = newStart
	n.postRel = append([]int32(nil), n.postRel[:w]...)
	n.postW = append([]float64(nil), n.postW[:w]...)
}

// queryVec is a query's weight vector: parallel sorted gram ids and
// normalized weights.
type queryVec struct {
	gram []int32
	w    []float64
}

// queryVector builds the (gram id, weight) vector of a query profile
// against the index vocabulary: grams unknown to the index or stopped
// are dropped, weights are idf-scaled and L2-normalized. Reuses qv's
// backing arrays.
func (n *nameIndex) queryVector(p *strsim.Profile, qv *queryVec) {
	qv.gram = qv.gram[:0]
	qv.w = qv.w[:0]
	norm := 0.0
	for j, g := range p.Grams {
		id, ok := n.lookupGram(g)
		if !ok || n.df[id] >= n.stopDF {
			continue
		}
		w := float64(p.Counts[j]) * n.idf[id]
		qv.gram = append(qv.gram, id)
		qv.w = append(qv.w, w)
		norm += w * w
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range qv.w {
			qv.w[i] /= norm
		}
	}
}

// lookupGram finds a gram's id by binary search.
func (n *nameIndex) lookupGram(g string) (int32, bool) {
	lo, hi := 0, len(n.grams)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.grams[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.grams) && n.grams[lo] == g {
		return int32(lo), true
	}
	return 0, false
}

// accumulate adds the query's cosine contributions into sc's dense name
// accumulators by walking the posting lists of the query's grams in
// ascending gram order. Touches only relations sharing at least one
// non-stop gram with the query.
func (n *nameIndex) accumulate(qv *queryVec, sc *probeScratch) {
	for i, g := range qv.gram {
		qw := qv.w[i]
		for j := n.gramStart[g]; j < n.gramStart[g+1]; j++ {
			id := n.postRel[j]
			sc.touch(id)
			sc.name[id] += qw * n.postW[j]
		}
	}
}

// exactScore computes the cosine between the query vector and relation
// rel by merging the two sorted gram lists — the all-pairs reference.
// The additions happen in ascending gram order, exactly like
// accumulate's per-relation sequence, so the result is bitwise equal.
func (n *nameIndex) exactScore(qv *queryVec, rel int32) float64 {
	i, j := 0, int(n.relStart[rel])
	end := int(n.relStart[rel+1])
	score := 0.0
	for i < len(qv.gram) && j < end {
		switch {
		case qv.gram[i] < n.relGram[j]:
			i++
		case qv.gram[i] > n.relGram[j]:
			j++
		default:
			score += qv.w[i] * n.relW[j]
			i++
			j++
		}
	}
	return score
}
