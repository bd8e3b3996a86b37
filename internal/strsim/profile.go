package strsim

import (
	"sort"
	"sync"
)

// Profile is the character n-gram multiset of one string in a compact,
// immutable form: the distinct grams sorted ascending with their
// multiplicities. Profiles are built once per (string, n) and shared:
// a comparison merges two prebuilt profiles instead of rebuilding both
// gram sets, and the candidate-generation index reuses the same
// profiles for its weighted trigram postings.
type Profile struct {
	// N is the gram length the profile was built with.
	N int
	// Grams holds the distinct lower-cased grams, sorted ascending.
	Grams []string
	// Counts holds the multiplicity of each gram, parallel to Grams.
	Counts []int32
	// Total is the total number of grams (Σ Counts) — the multiset
	// cardinality the Dice denominator needs.
	Total int
}

// NewProfile builds the n-gram profile of s without consulting the
// cache. Strings shorter than n (in runes) produce an empty profile.
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

// Dice computes the Dice coefficient between two profiles of the same
// n: 2·|A∩B| / (|A|+|B|) over the gram multisets. Two empty profiles
// score 0 (callers that want the equal-short-string convention must
// compare the strings themselves).
func (p *Profile) Dice(q *Profile) float64 {
	if p.Total == 0 || q.Total == 0 {
		return 0
	}
	common := 0
	i, j := 0, 0
	for i < len(p.Grams) && j < len(q.Grams) {
		switch {
		case p.Grams[i] < q.Grams[j]:
			i++
		case p.Grams[i] > q.Grams[j]:
			j++
		default:
			ca, cb := p.Counts[i], q.Counts[j]
			if cb < ca {
				ca = cb
			}
			common += int(ca)
			i++
			j++
		}
	}
	return 2 * float64(common) / float64(p.Total+q.Total)
}

// profileCacheCap bounds the memoized profiles. When the cap is hit the
// cache resets wholesale — a generation flip, not an LRU — which keeps
// the hot path a single map read and the worst case bounded. Cached
// profiles stay valid after a reset; only future lookups rebuild.
const profileCacheCap = 1 << 16

type profileKey struct {
	s string
	n int
}

var (
	profMu    sync.RWMutex
	profCache = make(map[profileKey]*Profile, 1024)
)

// ProfileOf returns the memoized n-gram profile of s, building it on
// first use. Profiles are immutable and safe to share across
// goroutines.
func ProfileOf(s string, n int) *Profile {
	key := profileKey{s: s, n: n}
	profMu.RLock()
	p, ok := profCache[key]
	profMu.RUnlock()
	if ok {
		return p
	}
	p = NewProfile(s, n)
	profMu.Lock()
	if len(profCache) >= profileCacheCap {
		profCache = make(map[profileKey]*Profile, 1024)
	}
	profCache[key] = p
	profMu.Unlock()
	return p
}
