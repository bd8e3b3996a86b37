package sparql

import "math/rand"

// RandStream is the RAND() draw stream of one query execution, the
// single definition of it: an engine seeded with seed draws, for a query
// whose canonical text hashes (FNV-64a) to fp, from the standard
// generator seeded with seed*1_000_003 XOR fp. The execution path
// (execState) and the federation merge (internal/shard) both draw from
// it, which is what keeps sharded RAND() results byte-identical to
// unsharded ones. Its state is a lazySource, made on the first Seed and
// kept with whatever holds the stream (a pooled execution state, a
// merge's scratch): seeding it again costs O(1) and makes only the
// words the draws read. A stream must be seeded before its first draw.
type RandStream struct{ r *rand.Rand }

// Seed starts the stream an engine seeded with seed draws for the
// canonical text of a query.
func (s *RandStream) Seed(seed int64, canonicalText string) {
	s.seed(seed, fnv64a(fnvOffset, canonicalText))
}

func (s *RandStream) seed(seed int64, fp uint64) {
	if s.r == nil {
		s.r = rand.New(new(lazySource))
	}
	s.r.Seed(seed*1_000_003 ^ int64(fp))
}

// Float64 is the stream's next draw, in [0, 1).
func (s *RandStream) Float64() float64 { return s.r.Float64() }

// fnvOffset is the FNV-64a offset basis, the hash of no bytes.
const fnvOffset = 14695981039346656037

// fnv64a extends the FNV-64a hash h over the bytes of s.
func fnv64a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// lazySource is math/rand's standard generator — the same 607-word
// lagged Fibonacci register, tap and feed, so the same draws for the
// same seed — seeded lazily: Seed keeps the reduced seed x₀, and word i
// is made when a draw first reads it. The standard Seed fills word i
// from the Lehmer steps x₀·48271ᵏ mod 2³¹−1, k = 21+3i, 22+3i and
// 23+3i, XORed with rngCooked[i]; a RAND() window drawing a few dozen
// numbers makes a few dozen words of the 607.
type lazySource struct {
	tap, feed int
	n         int // draws since Seed
	x0        uint64
	vec       [rngLen]int64
}

const rngLen, rngTap, lehmerMod = 607, 273, 1<<31 - 1

var randPowers [3*rngLen + 21]uint64 // 48271ᵏ mod 2³¹−1, for every k a word reads
var rngCooked [rngLen]int64          // math/rand's (unexported) seeding table

// init recovers rngCooked from the standard source seeded with 1. Draw
// j adds word 607−j into word feed(j); after 607 draws, each word fed
// once, the register holds the draws, and undoing them last to first
// leaves the seeded register, whose Lehmer part XORs off to the table.
func init() {
	randPowers[0] = 1
	for k := 1; k < len(randPowers); k++ {
		randPowers[k] = randPowers[k-1] * 48271 % lehmerMod
	}
	src := rand.NewSource(1).(rand.Source64)
	feed := func(j int) int { return (2*rngLen - rngTap - j) % rngLen }
	for j := 1; j <= rngLen; j++ {
		rngCooked[feed(j)] = int64(src.Uint64())
	}
	for j := rngLen; j >= 1; j-- {
		rngCooked[feed(j)] -= rngCooked[rngLen-j]
	}
	for i := range rngCooked {
		rngCooked[i] ^= lehmerWord(1, i)
	}
}

// lehmerWord is the Lehmer part of register word i for seed x0.
func lehmerWord(x0 uint64, i int) int64 {
	p := randPowers[21+3*i:]
	return int64(x0*p[0]%lehmerMod<<40 ^ x0*p[1]%lehmerMod<<20 ^ x0*p[2]%lehmerMod)
}

// Seed reduces seed as the standard source does and forgets every word.
func (s *lazySource) Seed(seed int64) {
	if seed %= lehmerMod; seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.tap, s.feed, s.n, s.x0 = 0, rngLen-rngTap, 0, uint64(seed)
}

// Uint64 is the standard source's step. Draws 1–334 feed words 333…0
// and draws 1–273 tap words 606…334, each read for the first time, so
// made here; every other read is of a word fed or tapped before.
func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	if s.n++; s.n <= rngLen-rngTap {
		s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ rngCooked[s.feed]
		if s.n <= rngTap {
			s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ rngCooked[s.tap]
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 without its top bit, as the standard source's.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
