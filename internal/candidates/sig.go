package candidates

import (
	"math/bits"
	"slices"
)

// sigIndex is the instance-signature side of the Index: a minhash
// sketch per relation over its sampled (subject, object) key set, LSH
// band buckets for sub-linear candidate lookup, and the exact sorted
// key sets for the all-pairs reference scorer.
//
// Minhash signatures exist purely to select candidates: relations
// whose signatures agree on every row of some band collide in that
// band's bucket. Scoring then runs on the stored exact key sets, so
// the band-collision pool — which relations get scored at all — is the
// index's only approximation.
type sigIndex struct {
	// sigs holds each relation's minhash signature, flattened:
	// sigs[rel*sigHashes : (rel+1)*sigHashes]. Relations with an empty key
	// set have no signature (empty[rel] is true) and never collide.
	sigs  []uint64
	empty []bool

	// CSR exact key sets: keys[keyStart[rel]:keyStart[rel+1]], sorted.
	keyStart []int32
	keys     []uint64

	// The LSH buckets, as one flat table: a band hash's top bits pick
	// a slot, entries bucketStart[slot]:bucketStart[slot+1] of the
	// parallel bucketKey/bucketRel arrays are the (band hash, relation)
	// pairs that landed there, ordered by hash and, within one hash, by
	// ascending relation — so a bucket is a sub-slice of bucketRel.
	// There are at least as many slots as pairs; most hold one entry.
	bucketShift uint8
	bucketStart []uint32
	bucketKey   []uint64
	bucketRel   []int32
}

// splitmix64 is the standard 64-bit finalizer used to derive the
// per-position hash functions and band bucket keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a string (64-bit FNV-1a).
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Key constructors tag the term role so a subject IRI and an object
// IRI of the same entity stay distinct keys.
func subjectKey(iri string) uint64 { return splitmix64(fnv64a(iri) ^ 0x5368) } // "Sh"
func objectKey(iri string) uint64  { return splitmix64(fnv64a(iri) ^ 0x4f62) } // "Ob"
func literalKey(lex string) uint64 { return splitmix64(fnv64a(lex) ^ 0x4c69) } // "Li"

// minhash fills sig (length sigHashes) with the minimum of
// splitmix64(key ^ seed_i) over keys for each hash position i.
func minhash(sig []uint64, keys []uint64) {
	for i := range sig {
		hseed := splitmix64(sigSeed + uint64(i))
		min := ^uint64(0)
		for _, k := range keys {
			if h := splitmix64(k ^ hseed); h < min {
				min = h
			}
		}
		sig[i] = min
	}
}

// bandHash folds one band of a signature into a bucket key. The band
// index participates so equal row values in different bands do not
// alias into one bucket.
func bandHash(band int, rowsVals []uint64) uint64 {
	h := splitmix64(uint64(band) + 0x9e37)
	for _, v := range rowsVals {
		h = splitmix64(h ^ v)
	}
	return h
}

// buildSigIndex derives signatures, buckets and exact key sets from the
// per-relation sampled key sets (index order = ix.rels order).
func (ix *Index) buildSigIndex(sets [][]uint64) {
	s := &ix.sig
	N := len(ix.rels)

	s.keyStart = make([]int32, N+1)
	total := 0
	for _, set := range sets {
		total += len(set)
	}
	s.keys = make([]uint64, 0, total)
	s.sigs = make([]uint64, N*sigHashes)
	s.empty = make([]bool, N)
	for i, set := range sets {
		s.keyStart[i+1] = s.keyStart[i] + int32(len(set))
		s.keys = append(s.keys, set...)
		if len(set) == 0 {
			s.empty[i] = true
			continue
		}
		minhash(s.sigs[i*sigHashes:(i+1)*sigHashes], set)
	}
	s.buildBuckets()
}

// buildBuckets derives the bucket table from sigs and empty: a count
// pass sizes every slot, a prefix sum places them, a fill pass in
// (relation, band) order drops the pairs in, and slots that took more
// than one hash are put in hash order. The builder and the sidecar
// decoder both end here, so a loaded index holds the same table.
func (s *sigIndex) buildBuckets() {
	pairs := 0
	for _, e := range s.empty {
		if !e {
			pairs += sigBands
		}
	}
	slotBits := 0
	if pairs > 1 {
		slotBits = bits.Len(uint(pairs - 1))
	}
	s.bucketShift = uint8(64 - slotBits)
	slots := 1 << slotBits
	eachPair := func(visit func(key uint64, rel int32)) {
		for i, e := range s.empty {
			if e {
				continue
			}
			sig := s.sigs[i*sigHashes : (i+1)*sigHashes]
			for b := 0; b < sigBands; b++ {
				visit(bandHash(b, sig[b*sigRows:(b+1)*sigRows]), int32(i))
			}
		}
	}

	// Slot s counts into at[s+2]; after the prefix sum at[s+1] is where
	// slot s begins and serves as its fill cursor, which leaves at[s]
	// at the beginning of slot s once every pair is placed.
	at := make([]uint32, slots+2)
	eachPair(func(key uint64, _ int32) { at[key>>s.bucketShift+2]++ })
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	s.bucketKey = make([]uint64, pairs)
	s.bucketRel = make([]int32, pairs)
	eachPair(func(key uint64, rel int32) {
		cur := &at[key>>s.bucketShift+1]
		s.bucketKey[*cur], s.bucketRel[*cur] = key, rel
		*cur++
	})
	s.bucketStart = at[:slots+1]

	// Stable insertion sort by hash inside each slot: relations of one
	// hash stay in the ascending order the fill pass appended them in.
	for slot := 0; slot < slots; slot++ {
		lo, hi := int(at[slot]), int(at[slot+1])
		for i := lo + 1; i < hi; i++ {
			key, rel := s.bucketKey[i], s.bucketRel[i]
			j := i
			for ; j > lo && s.bucketKey[j-1] > key; j-- {
				s.bucketKey[j], s.bucketRel[j] = s.bucketKey[j-1], s.bucketRel[j-1]
			}
			s.bucketKey[j], s.bucketRel[j] = key, rel
		}
	}
}

// bucket returns the relations whose signature hashed to key in the
// band key was derived for, ascending (a view into the table).
func (s *sigIndex) bucket(key uint64) []int32 {
	slot := key >> s.bucketShift
	lo, hi := s.bucketStart[slot], s.bucketStart[slot+1]
	for lo < hi && s.bucketKey[lo] < key {
		lo++
	}
	end := lo
	for end < hi && s.bucketKey[end] == key {
		end++
	}
	return s.bucketRel[lo:end]
}

// candidates appends to out the relations colliding with sig in at
// least one band, deduplicated ascending. Empty-signature queries
// yield nothing.
func (s *sigIndex) candidates(sig []uint64, out []int32) []int32 {
	for b := 0; b < sigBands; b++ {
		key := bandHash(b, sig[b*sigRows:(b+1)*sigRows])
		out = append(out, s.bucket(key)...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// exactJaccard computes |Q ∩ rel| / |Q ∪ rel| over the sorted key
// sets — the all-pairs reference. Either side empty scores 0.
func (s *sigIndex) exactJaccard(q []uint64, rel int32) float64 {
	rk := s.keys[s.keyStart[rel]:s.keyStart[rel+1]]
	if len(q) == 0 || len(rk) == 0 {
		return 0
	}
	i, j, inter := 0, 0, 0
	for i < len(q) && j < len(rk) {
		switch {
		case q[i] < rk[j]:
			i++
		case q[i] > rk[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	return float64(inter) / float64(len(q)+len(rk)-inter)
}
