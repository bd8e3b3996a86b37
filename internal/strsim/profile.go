package strsim

import "sort"

// Profile is the character n-gram multiset of one string in a compact,
// immutable form: the distinct grams sorted ascending with their
// multiplicities. The candidate-generation index builds one per
// relation name for its weighted trigram postings.
type Profile struct {
	// N is the gram length the profile was built with.
	N int
	// Grams holds the distinct lower-cased grams, sorted ascending.
	Grams []string
	// Counts holds the multiplicity of each gram, parallel to Grams.
	Counts []int32
	// Total is the total number of grams (Σ Counts).
	Total int
}

// NewProfile builds the n-gram profile of s. Strings shorter than n (in
// runes) produce an empty profile.
func NewProfile(s string, n int) *Profile {
	if n < 1 {
		n = 2
	}
	gs := ngrams(s, n)
	p := &Profile{N: n, Total: len(gs)}
	if len(gs) == 0 {
		return p
	}
	sort.Strings(gs)
	p.Grams = make([]string, 0, len(gs))
	p.Counts = make([]int32, 0, len(gs))
	for i := 0; i < len(gs); {
		j := i + 1
		for j < len(gs) && gs[j] == gs[i] {
			j++
		}
		p.Grams = append(p.Grams, gs[i])
		p.Counts = append(p.Counts, int32(j-i))
		i = j
	}
	return p
}
