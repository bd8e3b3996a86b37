package candidates

// io.go is the persistence half of the index lifecycle. Building the
// index is the expensive step — one sampling probe per target relation,
// seconds at 10⁵ relations even fanned out — while everything the probe
// path needs is a handful of flat arrays. So an Index serializes to a
// versioned, checksummed binary sidecar in the same container as KB
// snapshots (internal/binfmt), written beside them by kbgen, and
// OpenIndex restores it with no sampling and no endpoint at all.
//
// A sidecar is only valid for the exact inventory and options it was
// built from: a stale index silently serving wrong candidates would be
// far worse than a rebuild. Every file therefore carries a fingerprint
// — FNV-64a over the format version, the index parameters (package
// constants, which the decoder also checks), MaxPostings and the sorted
// relation inventory — and LoadOrBuild falls back to a fresh build
// whenever the sidecar is missing, corrupt, or fingerprint-mismatched.
//
// The encoding is exact: float weights round-trip as raw IEEE-754 bits
// and the LSH buckets are rebuilt from the stored signatures in the
// same relation order the builder used, so a loaded index is
// reflect.DeepEqual to — and WriteIndex-byte-identical with — the index
// that wrote it.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"sofya/internal/binfmt"
	"sofya/internal/endpoint"
)

// idxVersion is the format version checked on load. It also feeds the
// fingerprint, so bumping it invalidates every existing sidecar.
const idxVersion = 1

// Section ids, in file order; the section table is indexed by these
// constants, so the order is part of the format.
const (
	isecMeta      = iota // fingerprint, counts, parameters and options (see WriteIndex)
	isecRelOff           // (N+1) × u32 byte offsets into isecRelBlob
	isecRelBlob          // concatenated relation IRIs, id order
	isecGramOff          // (G+1) × u32 byte offsets into isecGramBlob
	isecGramBlob         // concatenated gram vocabulary, id (= sorted) order
	isecDF               // G × i32 document frequencies
	isecIdf              // G × f64 idf weights (0 for stop grams)
	isecGramStart        // (G+1) × i32 CSR posting offsets
	isecPostRel          // P × i32 posting relation ids
	isecPostW            // P × f64 posting weights
	isecRelStart         // (N+1) × i32 CSR vector offsets
	isecRelGram          // V × i32 per-relation gram ids
	isecRelW             // V × f64 per-relation weights
	isecSigs             // N*hashes × u64 minhash signatures
	isecEmpty            // N × u8 empty-signature flags
	isecKeyStart         // (N+1) × i32 CSR key-set offsets
	isecKeys             // keyStart[N] × u64 sampled signature keys
	idxNumSections
)

// ErrBadIndex is wrapped by every load-time failure caused by the file
// itself (bad magic, version mismatch, checksum failure, inconsistent
// section layout) — as opposed to I/O errors.
var ErrBadIndex = errors.New("candidates: invalid or corrupt index")

// ErrStaleIndex is wrapped when a structurally valid sidecar was built
// from a different inventory or different options than the caller's.
var ErrStaleIndex = errors.New("candidates: index fingerprint mismatch")

// idxFormat is the sidecar format over the binfmt container; the
// magic's final byte is the major format generation.
var idxFormat = binfmt.Format{Magic: "SOFYACX\x01", Version: idxVersion, Sections: idxNumSections, Err: ErrBadIndex}

var badIdx = idxFormat.Errorf

// ---------------------------------------------------------------------
// Fingerprint

// Fingerprint identifies the index a given inventory and options would
// build: FNV-64a over the format version, the index parameters,
// MaxPostings (Parallelism is a build-shape knob, not an index
// parameter) and the sorted relation IRIs. Two calls agree exactly when
// BuildCtx would produce interchangeable indexes, so it is the
// staleness key for persisted sidecars and the identity key for shared
// caches.
func Fingerprint(rels []string, opt Options) uint64 {
	opt = opt.normalized()
	sorted := rels
	if !sort.StringsAreSorted(sorted) {
		sorted = append([]string(nil), rels...)
		sort.Strings(sorted)
	}
	h := newFP()
	h.u64(idxVersion)
	h.u64(sampleSize)
	h.u64(sigHashes)
	h.u64(sigBands)
	h.u64(gramN)
	h.u64(math.Float64bits(nameWeight))
	h.u64(math.Float64bits(sigWeight))
	h.u64(math.Float64bits(maxGramFrac))
	h.u64(uint64(opt.MaxPostings))
	h.u64(sigSeed)
	h.u64(uint64(len(sorted)))
	for _, r := range sorted {
		h.str(r)
	}
	return h.sum
}

// Fingerprint returns the fingerprint of the index's own inventory and
// options — what Fingerprint(ix.Relations(), ix.Options()) computes,
// remembered from when the index was built or decoded.
func (ix *Index) Fingerprint() uint64 { return ix.fp }

// fpHash is an incremental FNV-64a with length-prefixed strings so
// field boundaries cannot alias.
type fpHash struct{ sum uint64 }

func newFP() *fpHash { return &fpHash{sum: 14695981039346656037} }

func (h *fpHash) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= 1099511628211
}

func (h *fpHash) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *fpHash) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

// ---------------------------------------------------------------------
// Writing

// WriteIndex serializes the index as a binary sidecar that OpenIndex
// restores without any sampling. The output is deterministic: equal
// indexes produce byte-identical files, so the parallel-build identity
// differential can compare serialized bytes directly.
func (ix *Index) WriteIndex(out io.Writer) error {
	n := &ix.name
	s := &ix.sig
	N := len(ix.rels)

	w := binfmt.NewWriter(out, idxFormat)

	w.Section() // isecMeta
	w.U64(ix.Fingerprint())
	w.U64(uint64(N))
	w.U64(uint64(ix.truncGrams))
	w.U64(uint64(ix.truncPostings))
	w.U32(uint32(n.stopDF))
	w.U32(sampleSize)
	w.U32(sigHashes)
	w.U32(sigBands)
	w.U32(gramN)
	w.U32(uint32(ix.opt.MaxPostings))
	w.U64(math.Float64bits(nameWeight))
	w.U64(math.Float64bits(sigWeight))
	w.U64(math.Float64bits(maxGramFrac))
	w.U64(sigSeed)

	w.Strings(N, func(i int) string { return ix.rels[i] })
	w.Strings(len(n.grams), func(i int) string { return n.grams[i] })
	binfmt.Slice(w, n.df)
	binfmt.Slice(w, n.idf)
	binfmt.Slice(w, n.gramStart)
	binfmt.Slice(w, n.postRel)
	binfmt.Slice(w, n.postW)
	binfmt.Slice(w, n.relStart)
	binfmt.Slice(w, n.relGram)
	binfmt.Slice(w, n.relW)
	binfmt.Slice(w, s.sigs)

	w.Section() // isecEmpty
	empty := make([]byte, len(s.empty))
	for i, e := range s.empty {
		if e {
			empty[i] = 1
		}
	}
	w.Write(empty)

	binfmt.Slice(w, s.keyStart)
	binfmt.Slice(w, s.keys)
	return w.Finish()
}

// WriteIndexFile is WriteIndex to a file. The write is atomic (temp
// file + rename), so an interrupted write never leaves a truncated
// sidecar under the target name.
func (ix *Index) WriteIndexFile(path string) error {
	return binfmt.WriteFile(path, ix.WriteIndex)
}

// ---------------------------------------------------------------------
// Reading

// OpenIndex reads and verifies an index sidecar. Every section checksum
// is validated, and the decoded structure is cross-checked (offsets
// monotonic and spanning, ids in range, sorted invariants the probe's
// binary searches rely on, idf/stop-gram values consistent with the
// stored options) — a corrupt file fails here, wrapped in ErrBadIndex,
// instead of serving wrong candidates later. It does not check the
// fingerprint against any expectation; use LoadOrBuild for that.
func OpenIndex(path string) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ix, err := decodeIndex(data)
	if err != nil {
		return nil, fmt.Errorf("candidates: open index %s: %w", path, err)
	}
	return ix, nil
}

// decodeIndex validates data and builds an Index aliasing it where the
// host allows.
func decodeIndex(data []byte) (*Index, error) {
	file, err := idxFormat.Open(data)
	if err != nil {
		return nil, err
	}

	// Meta.
	meta := file.Bytes(isecMeta)
	if len(meta) != 88 {
		return nil, badIdx("meta section has %d bytes, want 88", len(meta))
	}
	storedFP := binary.LittleEndian.Uint64(meta[0:])
	nU := binary.LittleEndian.Uint64(meta[8:])
	truncG := binary.LittleEndian.Uint64(meta[16:])
	truncP := binary.LittleEndian.Uint64(meta[24:])
	stopDF := int32(binary.LittleEndian.Uint32(meta[32:]))
	// The stored index parameters must be this package's constants.
	le := binary.LittleEndian
	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(meta[off:])) }
	type params struct {
		SampleSize, Hashes, Bands, GramN   uint32
		NameWeight, SigWeight, MaxGramFrac float64
		Seed                               uint64
	}
	stored := params{le.Uint32(meta[36:]), le.Uint32(meta[40:]), le.Uint32(meta[44:]), le.Uint32(meta[48:]),
		f64(56), f64(64), f64(72), le.Uint64(meta[80:])}
	if want := (params{sampleSize, sigHashes, sigBands, gramN, nameWeight, sigWeight, maxGramFrac, sigSeed}); stored != want {
		return nil, badIdx("stored parameters %+v are not the index's %+v", stored, want)
	}
	opt := Options{MaxPostings: int(le.Uint32(meta[52:]))}
	if nU > math.MaxInt32 {
		return nil, badIdx("relation count %d exceeds int32 id space", nU)
	}
	if nU*sigBands > math.MaxUint32 {
		return nil, badIdx("%d relations × %d bands exceed the bucket table's offsets", nU, sigBands)
	}
	N := int(nU)
	if truncG > uint64(math.MaxInt) || truncP > uint64(math.MaxInt) {
		return nil, badIdx("truncation counters overflow")
	}

	// Decoded strings share the file's storage: safe because decoded
	// index bytes are immutable for the index's lifetime.
	strCol := func(offSec, blobSec, count int, what string) ([]string, error) {
		col, err := file.Strings(offSec, blobSec, count, what)
		if err != nil {
			return nil, err
		}
		out := make([]string, col.Len())
		for i := range out {
			out[i] = col.At(i)
		}
		return out, nil
	}
	rels, err := strCol(isecRelOff, isecRelBlob, N, "relation offsets")
	if err != nil {
		return nil, err
	}
	if !sort.StringsAreSorted(rels) {
		return nil, badIdx("relation inventory not sorted")
	}

	ix := &Index{opt: opt, rels: rels, truncGrams: int(truncG), truncPostings: int(truncP)}
	n := &ix.name
	n.stopDF = stopDF
	if want := stopCutoff(N); stopDF != want {
		return nil, badIdx("stop-gram cutoff %d inconsistent with options (want %d)", stopDF, want)
	}

	// Gram vocabulary — strictly sorted, because lookupGram binary
	// searches it.
	if n.grams, err = strCol(isecGramOff, isecGramBlob, -1, "gram offsets"); err != nil {
		return nil, err
	}
	gramCount := len(n.grams)
	for g := 1; g < gramCount; g++ {
		if n.grams[g-1] >= n.grams[g] {
			return nil, badIdx("gram vocabulary not strictly sorted at entry %d", g)
		}
	}

	// df and idf must agree with each other and the stop cutoff: the
	// probe trusts idf==0 to mean "stop gram".
	if n.df, err = binfmt.View[int32](file, isecDF, gramCount, "df"); err != nil {
		return nil, err
	}
	if n.idf, err = binfmt.View[float64](file, isecIdf, gramCount, "idf"); err != nil {
		return nil, err
	}
	for g := 0; g < gramCount; g++ {
		if n.df[g] < 1 || int(n.df[g]) > N {
			return nil, badIdx("df[%d] = %d out of range [1,%d]", g, n.df[g], N)
		}
		want := 0.0
		if n.df[g] < n.stopDF {
			want = math.Log(1 + float64(N)/float64(n.df[g]))
		}
		if n.idf[g] != want {
			return nil, badIdx("idf[%d] inconsistent with df and stop cutoff", g)
		}
	}

	// CSR postings: gram-major, relation ids strictly ascending within
	// each gram (the layout the builder and truncation both preserve).
	if n.gramStart, err = binfmt.View[int32](file, isecGramStart, gramCount+1, "gramStart"); err != nil {
		return nil, err
	}
	if n.postRel, err = binfmt.View[int32](file, isecPostRel, -1, "postRel"); err != nil {
		return nil, err
	}
	if err = idxFormat.CheckOffsets(n.gramStart, len(n.postRel), "gramStart"); err != nil {
		return nil, err
	}
	if n.postW, err = binfmt.View[float64](file, isecPostW, len(n.postRel), "postW"); err != nil {
		return nil, err
	}
	for g := 0; g < gramCount; g++ {
		for j := n.gramStart[g]; j < n.gramStart[g+1]; j++ {
			if n.postRel[j] < 0 || int(n.postRel[j]) >= N {
				return nil, badIdx("posting %d holds out-of-range relation id %d", j, n.postRel[j])
			}
			if j > n.gramStart[g] && n.postRel[j-1] >= n.postRel[j] {
				return nil, badIdx("postings of gram %d not strictly ascending", g)
			}
		}
	}

	// CSR per-relation vectors: relation-major, gram ids strictly
	// ascending within each relation (exactScore merge relies on it).
	if n.relStart, err = binfmt.View[int32](file, isecRelStart, N+1, "relStart"); err != nil {
		return nil, err
	}
	if n.relGram, err = binfmt.View[int32](file, isecRelGram, -1, "relGram"); err != nil {
		return nil, err
	}
	if err = idxFormat.CheckOffsets(n.relStart, len(n.relGram), "relStart"); err != nil {
		return nil, err
	}
	if n.relW, err = binfmt.View[float64](file, isecRelW, len(n.relGram), "relW"); err != nil {
		return nil, err
	}
	for i := 0; i < N; i++ {
		for j := n.relStart[i]; j < n.relStart[i+1]; j++ {
			if n.relGram[j] < 0 || int(n.relGram[j]) >= gramCount {
				return nil, badIdx("vector entry %d holds out-of-range gram id %d", j, n.relGram[j])
			}
			if j > n.relStart[i] && n.relGram[j-1] >= n.relGram[j] {
				return nil, badIdx("vector of relation %d not strictly ascending", i)
			}
		}
	}

	// Signature side.
	s := &ix.sig
	if s.sigs, err = binfmt.View[uint64](file, isecSigs, N*sigHashes, "signature"); err != nil {
		return nil, err
	}
	if len(file.Bytes(isecEmpty)) != N {
		return nil, badIdx("empty-flag section has %d bytes, want %d", len(file.Bytes(isecEmpty)), N)
	}
	s.empty = make([]bool, N)
	for i, b := range file.Bytes(isecEmpty) {
		switch b {
		case 0:
		case 1:
			s.empty[i] = true
		default:
			return nil, badIdx("empty flag %d holds invalid value %d", i, b)
		}
	}
	if s.keyStart, err = binfmt.View[int32](file, isecKeyStart, N+1, "keyStart"); err != nil {
		return nil, err
	}
	if s.keys, err = binfmt.View[uint64](file, isecKeys, -1, "key"); err != nil {
		return nil, err
	}
	if err = idxFormat.CheckOffsets(s.keyStart, len(s.keys), "keyStart"); err != nil {
		return nil, err
	}
	for i := 0; i < N; i++ {
		if s.empty[i] != (s.keyStart[i] == s.keyStart[i+1]) {
			return nil, badIdx("empty flag of relation %d disagrees with its key set", i)
		}
		for j := s.keyStart[i] + 1; j < s.keyStart[i+1]; j++ {
			if s.keys[j-1] >= s.keys[j] {
				return nil, badIdx("key set of relation %d not strictly ascending", i)
			}
		}
	}

	// LSH buckets are not serialized: they rebuild deterministically
	// from the signatures, through the builder's own table
	// construction, keeping the file smaller.
	s.buildBuckets()

	// The stored fingerprint must match the decoded content: a sidecar
	// whose inventory or options were tampered with (with checksums
	// re-stamped) still fails closed.
	ix.fp = Fingerprint(ix.rels, ix.opt)
	if ix.fp != storedFP {
		return nil, badIdx("stored fingerprint %016x disagrees with content fingerprint %016x", storedFP, ix.fp)
	}
	return ix, nil
}

// ---------------------------------------------------------------------
// LoadOrBuild

// LoadOrBuild restores the index from the sidecar at path when it
// matches the fingerprint of (rels, opt), and builds it fresh from the
// target endpoint otherwise. Any open failure — missing file, I/O
// error, corruption, stale fingerprint — falls back to building, never
// to wrong candidates; loaded reports which path produced the index.
// An empty path always builds.
func LoadOrBuild(ctx context.Context, path string, target endpoint.Endpoint, rels []string, links Translator, opt Options) (ix *Index, loaded bool, err error) {
	if path != "" {
		if ix, err := openMatching(path, Fingerprint(rels, opt)); err == nil {
			return ix, true, nil
		}
	}
	ix, err = BuildCtx(ctx, target, rels, links, opt)
	return ix, false, err
}

// openMatching opens a sidecar and checks it against the wanted
// fingerprint, wrapping a mismatch in ErrStaleIndex.
func openMatching(path string, want uint64) (*Index, error) {
	ix, err := OpenIndex(path)
	if err != nil {
		return nil, err
	}
	if got := ix.Fingerprint(); got != want {
		return nil, fmt.Errorf("%w: %s has %016x, want %016x", ErrStaleIndex, path, got, want)
	}
	return ix, nil
}
