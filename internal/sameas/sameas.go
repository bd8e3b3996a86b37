// Package sameas maintains the set E of owl:sameAs entity equivalences
// between two knowledge bases, which SOFYA's samplers use to translate
// sampled facts from K' into K identifiers.
//
// Links are kept as direct translation maps between the two KBs and as
// the list of recorded pairs. Real sameAs link sets are incomplete;
// Subset derives a deterministic random sub-sample for the
// coverage-sensitivity experiment (E5).
package sameas

import (
	"math/rand"
	"sort"
)

// Links is a bidirectional entity-equivalence registry between a KB "A"
// and a KB "B". The zero value is not usable; call New.
type Links struct {
	ab    map[string]string // A-IRI -> B-IRI
	ba    map[string]string // B-IRI -> A-IRI
	pairs []Pair            // insertion order, for iteration/Subset
}

// Pair is one sameAs statement between an entity of A and one of B.
type Pair struct {
	A, B string
}

// New returns an empty link set.
func New() *Links {
	return &Links{
		ab: make(map[string]string),
		ba: make(map[string]string),
	}
}

// Add records owl:sameAs(a, b) with a an entity of KB A and b of KB B.
// The first link for an entity wins for translation purposes; later
// links are still recorded in Pairs. Add reports whether the pair
// established a new translation (i.e. both directions were previously
// unmapped).
func (l *Links) Add(a, b string) bool {
	fresh := false
	if _, ok := l.ab[a]; !ok {
		l.ab[a] = b
		fresh = true
	}
	if _, ok := l.ba[b]; !ok {
		l.ba[b] = a
	} else {
		fresh = false
	}
	l.pairs = append(l.pairs, Pair{A: a, B: b})
	return fresh
}

// Len returns the number of recorded pairs (including duplicates).
func (l *Links) Len() int { return len(l.pairs) }

// AtoB translates an A-entity into its B equivalent.
func (l *Links) AtoB(a string) (string, bool) {
	b, ok := l.ab[a]
	return b, ok
}

// BtoA translates a B-entity into its A equivalent.
func (l *Links) BtoA(b string) (string, bool) {
	a, ok := l.ba[b]
	return a, ok
}

// Pairs returns the recorded pairs in insertion order. The slice is a
// copy and safe to mutate.
func (l *Links) Pairs() []Pair {
	out := make([]Pair, len(l.pairs))
	copy(out, l.pairs)
	return out
}

// Subset returns a new Links containing a deterministic random fraction
// of the pairs (0 ≤ fraction ≤ 1), seeded by seed. Pair order is first
// canonicalized so that equal inputs yield equal outputs regardless of
// insertion order.
func (l *Links) Subset(fraction float64, seed int64) *Links {
	ps := l.Pairs()
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].A != ps[j].A {
			return ps[i].A < ps[j].A
		}
		return ps[i].B < ps[j].B
	})
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	keep := int(float64(len(ps)) * fraction)
	if keep < 0 {
		keep = 0
	}
	if keep > len(ps) {
		keep = len(ps)
	}
	out := New()
	for _, p := range ps[:keep] {
		out.Add(p.A, p.B)
	}
	return out
}
