package candidates

// io.go is the persistence half of the index lifecycle. Building the
// index is the expensive step — one sampling probe per target relation,
// seconds at 10⁵ relations even fanned out — while everything the probe
// path needs is a handful of flat arrays. So an Index serializes to a
// versioned, checksummed binary sidecar in the style of kb/snapshot.go
// (8-aligned little-endian sections, CRC-32C per section, section table
// + footer), written beside KB snapshots by kbgen, and OpenIndex
// restores it with no sampling and no endpoint at all.
//
// A sidecar is only valid for the exact inventory and options it was
// built from: a stale index silently serving wrong candidates would be
// far worse than a rebuild. Every file therefore carries a fingerprint
// — FNV-64a over the format version, the normalized Options (excluding
// Parallelism, which shapes the build, not the index) and the sorted
// relation inventory — and LoadOrBuild falls back to a fresh build
// whenever the sidecar is missing, corrupt, or fingerprint-mismatched.
//
// The encoding is exact: float weights round-trip as raw IEEE-754 bits
// and the LSH buckets are rebuilt from the stored signatures in the
// same relation order the builder used, so a loaded index is
// reflect.DeepEqual to — and WriteIndex-byte-identical with — the index
// that wrote it.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"unsafe"

	"sofya/internal/endpoint"
)

// idxMagic brands index sidecars at both ends; the final byte is the
// major format generation.
const idxMagic = "SOFYACX\x01"

// idxVersion is the format version checked on load. It also feeds the
// fingerprint, so bumping it invalidates every existing sidecar.
const idxVersion = 1

// Section ids, in file order; the section table is indexed by these
// constants, so the order is part of the format.
const (
	isecMeta      = iota // fingerprint, counts, normalized options (see writeMeta)
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

const (
	idxFooterSize   = 32 // tableOff u64 | count u32 | version u32 | tableCRC u32 | reserved u32 | magic
	idxTableEntSize = 24 // off u64 | len u64 | crc u32 | reserved u32
	idxPreludeSize  = 16 // magic | version u32 | count u32
)

// ErrBadIndex is wrapped by every load-time failure caused by the file
// itself (bad magic, version mismatch, checksum failure, inconsistent
// section layout) — as opposed to I/O errors.
var ErrBadIndex = errors.New("candidates: invalid or corrupt index")

// ErrStaleIndex is wrapped when a structurally valid sidecar was built
// from a different inventory or different options than the caller's.
var ErrStaleIndex = errors.New("candidates: index fingerprint mismatch")

var idxCastagnoli = crc32.MakeTable(crc32.Castagnoli)

var idxHostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ---------------------------------------------------------------------
// Fingerprint

// Fingerprint identifies the index a given inventory and options would
// build: FNV-64a over the format version, the normalized options
// (excluding Parallelism — a build-shape knob, not an index parameter)
// and the sorted relation IRIs. Two calls agree exactly when BuildCtx
// would produce interchangeable indexes, so it is the staleness key for
// persisted sidecars and the identity key for shared caches.
func Fingerprint(rels []string, opt Options) uint64 {
	opt = opt.normalized()
	sorted := rels
	if !sort.StringsAreSorted(sorted) {
		sorted = append([]string(nil), rels...)
		sort.Strings(sorted)
	}
	h := newFP()
	h.u64(idxVersion)
	h.u64(uint64(opt.SampleSize))
	h.u64(uint64(opt.Hashes))
	h.u64(uint64(opt.Bands))
	h.u64(uint64(opt.GramN))
	h.u64(math.Float64bits(opt.NameWeight))
	h.u64(math.Float64bits(opt.SigWeight))
	h.u64(math.Float64bits(opt.MaxGramFrac))
	h.u64(uint64(opt.MaxPostings))
	h.u64(opt.Seed)
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

// idxCountingWriter tracks the byte offset and the first error so the
// section writers can stay unconditional.
type idxCountingWriter struct {
	w   io.Writer
	off uint64
	err error
}

func (cw *idxCountingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.off += uint64(n)
	cw.err = err
	return n, err
}

var idxZeroPad [8]byte

func (cw *idxCountingWriter) align8() {
	if rem := cw.off % 8; rem != 0 {
		cw.Write(idxZeroPad[:8-rem])
	}
}

// idxSection records one table entry while writing.
type idxSection struct {
	off, len uint64
	crc      uint32
}

// idxSectionWriter checksums a section body as it streams out.
type idxSectionWriter struct {
	cw  *idxCountingWriter
	crc uint32
}

func (sw *idxSectionWriter) Write(p []byte) (int, error) {
	n, err := sw.cw.Write(p)
	sw.crc = crc32.Update(sw.crc, idxCastagnoli, p[:n])
	return n, err
}

func (sw *idxSectionWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.Write(b[:])
}

func (sw *idxSectionWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	sw.Write(b[:])
}

// int32s writes a []int32 little-endian; on little-endian hosts the
// slice's backing bytes go out directly.
func (sw *idxSectionWriter) int32s(a []int32) {
	if len(a) == 0 {
		return
	}
	if idxHostLE {
		sw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*4))
		return
	}
	var buf [512]byte
	for len(a) > 0 {
		n := len(a)
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(a[i]))
		}
		sw.Write(buf[:n*4])
		a = a[n:]
	}
}

func (sw *idxSectionWriter) u64s(a []uint64) {
	if len(a) == 0 {
		return
	}
	if idxHostLE {
		sw.Write(unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*8))
		return
	}
	var buf [512]byte
	for len(a) > 0 {
		n := len(a)
		if n > len(buf)/8 {
			n = len(buf) / 8
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], a[i])
		}
		sw.Write(buf[:n*8])
		a = a[n:]
	}
}

// f64s writes a []float64 as raw IEEE-754 bits, so weights round-trip
// bitwise and a loaded index scores identically to the built one.
func (sw *idxSectionWriter) f64s(a []float64) {
	sw.u64s(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(a))), len(a)))
}

// strCol writes a u32 offsets section followed by the blob section for
// n strings.
func strCol(section func(func(sw *idxSectionWriter)), n int, get func(i int) string) {
	section(func(sw *idxSectionWriter) {
		off := uint32(0)
		sw.u32(0)
		for i := 0; i < n; i++ {
			off += uint32(len(get(i)))
			sw.u32(off)
		}
	})
	section(func(sw *idxSectionWriter) {
		for i := 0; i < n; i++ {
			io.WriteString(sw, get(i))
		}
	})
}

// WriteIndex serializes the index as a binary sidecar that OpenIndex
// restores without any sampling. The output is deterministic: equal
// indexes produce byte-identical files, so the parallel-build identity
// differential can compare serialized bytes directly.
func (ix *Index) WriteIndex(w io.Writer) error {
	n := &ix.name
	s := &ix.sig
	N := len(ix.rels)

	var relBytes, gramBytes uint64
	for _, r := range ix.rels {
		relBytes += uint64(len(r))
	}
	for _, g := range n.grams {
		gramBytes += uint64(len(g))
	}
	if relBytes > math.MaxUint32 || gramBytes > math.MaxUint32 {
		return fmt.Errorf("candidates: index string blob exceeds 4 GiB (rels %d, grams %d bytes)", relBytes, gramBytes)
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	cw := &idxCountingWriter{w: bw}
	cw.Write([]byte(idxMagic))
	var prelude [8]byte
	binary.LittleEndian.PutUint32(prelude[0:], idxVersion)
	binary.LittleEndian.PutUint32(prelude[4:], idxNumSections)
	cw.Write(prelude[:])

	sections := make([]idxSection, 0, idxNumSections)
	section := func(body func(sw *idxSectionWriter)) {
		cw.align8()
		sw := &idxSectionWriter{cw: cw}
		start := cw.off
		body(sw)
		sections = append(sections, idxSection{off: start, len: cw.off - start, crc: sw.crc})
	}

	// isecMeta
	section(func(sw *idxSectionWriter) {
		sw.u64(ix.Fingerprint())
		sw.u64(uint64(N))
		sw.u64(uint64(ix.truncGrams))
		sw.u64(uint64(ix.truncPostings))
		sw.u32(uint32(n.stopDF))
		sw.u32(uint32(ix.opt.SampleSize))
		sw.u32(uint32(ix.opt.Hashes))
		sw.u32(uint32(ix.opt.Bands))
		sw.u32(uint32(ix.opt.GramN))
		sw.u32(uint32(ix.opt.MaxPostings))
		sw.u64(math.Float64bits(ix.opt.NameWeight))
		sw.u64(math.Float64bits(ix.opt.SigWeight))
		sw.u64(math.Float64bits(ix.opt.MaxGramFrac))
		sw.u64(ix.opt.Seed)
	})
	strCol(section, N, func(i int) string { return ix.rels[i] })
	strCol(section, len(n.grams), func(i int) string { return n.grams[i] })
	section(func(sw *idxSectionWriter) { sw.int32s(n.df) })
	section(func(sw *idxSectionWriter) { sw.f64s(n.idf) })
	section(func(sw *idxSectionWriter) { sw.int32s(n.gramStart) })
	section(func(sw *idxSectionWriter) { sw.int32s(n.postRel) })
	section(func(sw *idxSectionWriter) { sw.f64s(n.postW) })
	section(func(sw *idxSectionWriter) { sw.int32s(n.relStart) })
	section(func(sw *idxSectionWriter) { sw.int32s(n.relGram) })
	section(func(sw *idxSectionWriter) { sw.f64s(n.relW) })
	section(func(sw *idxSectionWriter) { sw.u64s(s.sigs) })
	section(func(sw *idxSectionWriter) {
		buf := make([]byte, len(s.empty))
		for i, e := range s.empty {
			if e {
				buf[i] = 1
			}
		}
		sw.Write(buf)
	})
	section(func(sw *idxSectionWriter) { sw.int32s(s.keyStart) })
	section(func(sw *idxSectionWriter) { sw.u64s(s.keys) })

	cw.align8()
	tableOff := cw.off
	tableCRC := uint32(0)
	for _, sec := range sections {
		var ent [idxTableEntSize]byte
		binary.LittleEndian.PutUint64(ent[0:], sec.off)
		binary.LittleEndian.PutUint64(ent[8:], sec.len)
		binary.LittleEndian.PutUint32(ent[16:], sec.crc)
		tableCRC = crc32.Update(tableCRC, idxCastagnoli, ent[:])
		cw.Write(ent[:])
	}
	var foot [idxFooterSize]byte
	binary.LittleEndian.PutUint64(foot[0:], tableOff)
	binary.LittleEndian.PutUint32(foot[8:], idxNumSections)
	binary.LittleEndian.PutUint32(foot[12:], idxVersion)
	binary.LittleEndian.PutUint32(foot[16:], tableCRC)
	copy(foot[24:], idxMagic)
	cw.Write(foot[:])
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// WriteIndexFile is WriteIndex to a file. The write is atomic (temp
// file + rename), so an interrupted write never leaves a truncated
// sidecar under the target name.
func (ix *Index) WriteIndexFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".candidx-tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := ix.WriteIndex(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ---------------------------------------------------------------------
// Reading

func badIdx(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadIndex, fmt.Sprintf(format, args...))
}

// leI32s views b as a little-endian []int32, aliasing b on aligned
// little-endian hosts and decoding onto the heap elsewhere.
func leI32s(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if idxHostLE && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func leU32s(b []byte) []uint32 {
	a := leI32s(b)
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

func leU64s(b []byte) []uint64 {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if idxHostLE && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func leF64s(b []byte) []float64 {
	a := leU64s(b)
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

// idxAliasString views b as a string sharing b's storage; safe because
// decoded index bytes are immutable for the index's lifetime.
func idxAliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

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

// ReadIndex is OpenIndex from an io.Reader.
func ReadIndex(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeIndex(data)
}

// decodeIndex validates data and builds an Index aliasing it where the
// host allows.
func decodeIndex(data []byte) (*Index, error) {
	secs, err := indexSections(data)
	if err != nil {
		return nil, err
	}

	// Meta.
	meta := secs[isecMeta]
	if len(meta) != 88 {
		return nil, badIdx("meta section has %d bytes, want 88", len(meta))
	}
	storedFP := binary.LittleEndian.Uint64(meta[0:])
	nU := binary.LittleEndian.Uint64(meta[8:])
	truncG := binary.LittleEndian.Uint64(meta[16:])
	truncP := binary.LittleEndian.Uint64(meta[24:])
	stopDF := int32(binary.LittleEndian.Uint32(meta[32:]))
	opt := Options{
		SampleSize:  int(binary.LittleEndian.Uint32(meta[36:])),
		Hashes:      int(binary.LittleEndian.Uint32(meta[40:])),
		Bands:       int(binary.LittleEndian.Uint32(meta[44:])),
		GramN:       int(binary.LittleEndian.Uint32(meta[48:])),
		MaxPostings: int(binary.LittleEndian.Uint32(meta[52:])),
		NameWeight:  math.Float64frombits(binary.LittleEndian.Uint64(meta[56:])),
		SigWeight:   math.Float64frombits(binary.LittleEndian.Uint64(meta[64:])),
		MaxGramFrac: math.Float64frombits(binary.LittleEndian.Uint64(meta[72:])),
		Seed:        binary.LittleEndian.Uint64(meta[80:]),
	}
	if opt != opt.normalized() {
		return nil, badIdx("stored options are not in normalized form")
	}
	if nU > math.MaxInt32 {
		return nil, badIdx("relation count %d exceeds int32 id space", nU)
	}
	if nU*uint64(opt.Bands) > math.MaxUint32 {
		return nil, badIdx("%d relations × %d bands exceed the bucket table's offsets", nU, opt.Bands)
	}
	N := int(nU)
	if truncG > uint64(math.MaxInt) || truncP > uint64(math.MaxInt) {
		return nil, badIdx("truncation counters overflow")
	}

	strCol := func(offSec, blobSec, count int, what string) ([]string, error) {
		if len(secs[offSec]) != (count+1)*4 {
			return nil, badIdx("%s offsets section has %d bytes, want %d", what, len(secs[offSec]), (count+1)*4)
		}
		offs := leU32s(secs[offSec])
		blob := secs[blobSec]
		if offs[0] != 0 || uint64(offs[count]) != uint64(len(blob)) {
			return nil, badIdx("%s offsets do not span the blob", what)
		}
		out := make([]string, count)
		for i := 0; i < count; i++ {
			if offs[i] > offs[i+1] {
				return nil, badIdx("%s offsets decrease at entry %d", what, i)
			}
			out[i] = idxAliasString(blob[offs[i]:offs[i+1]])
		}
		return out, nil
	}
	rels, err := strCol(isecRelOff, isecRelBlob, N, "relation")
	if err != nil {
		return nil, err
	}
	if !sort.StringsAreSorted(rels) {
		return nil, badIdx("relation inventory not sorted")
	}

	ix := &Index{opt: opt, rels: rels, truncGrams: int(truncG), truncPostings: int(truncP)}
	n := &ix.name
	n.stopDF = stopDF
	if want := stopCutoff(N, opt.MaxGramFrac); stopDF != want {
		return nil, badIdx("stop-gram cutoff %d inconsistent with options (want %d)", stopDF, want)
	}

	// Gram vocabulary — strictly sorted, because lookupGram binary
	// searches it.
	gramCount := len(secs[isecGramOff])/4 - 1
	if gramCount < 0 {
		return nil, badIdx("gram offsets section too short")
	}
	if n.grams, err = strCol(isecGramOff, isecGramBlob, gramCount, "gram"); err != nil {
		return nil, err
	}
	for g := 1; g < gramCount; g++ {
		if n.grams[g-1] >= n.grams[g] {
			return nil, badIdx("gram vocabulary not strictly sorted at entry %d", g)
		}
	}

	i32Sec := func(sec, wantLen int, what string) ([]int32, error) {
		if len(secs[sec])%4 != 0 {
			return nil, badIdx("%s section length %d is not a multiple of 4", what, len(secs[sec]))
		}
		a := leI32s(secs[sec])
		if wantLen >= 0 && len(a) != wantLen {
			return nil, badIdx("%s section has %d entries, want %d", what, len(a), wantLen)
		}
		return a, nil
	}
	f64Sec := func(sec, wantLen int, what string) ([]float64, error) {
		if len(secs[sec])%8 != 0 {
			return nil, badIdx("%s section length %d is not a multiple of 8", what, len(secs[sec]))
		}
		a := leF64s(secs[sec])
		if wantLen >= 0 && len(a) != wantLen {
			return nil, badIdx("%s section has %d entries, want %d", what, len(a), wantLen)
		}
		return a, nil
	}
	checkOffsets := func(off []int32, max int, what string) error {
		if off[0] != 0 || int(off[len(off)-1]) != max {
			return badIdx("%s offsets do not span [0,%d]", what, max)
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return badIdx("%s offsets decrease at entry %d", what, i)
			}
		}
		return nil
	}

	// df and idf must agree with each other and the stop cutoff: the
	// probe trusts idf==0 to mean "stop gram".
	if n.df, err = i32Sec(isecDF, gramCount, "df"); err != nil {
		return nil, err
	}
	if n.idf, err = f64Sec(isecIdf, gramCount, "idf"); err != nil {
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
	if n.gramStart, err = i32Sec(isecGramStart, gramCount+1, "gramStart"); err != nil {
		return nil, err
	}
	if n.postRel, err = i32Sec(isecPostRel, -1, "postRel"); err != nil {
		return nil, err
	}
	if err = checkOffsets(n.gramStart, len(n.postRel), "gramStart"); err != nil {
		return nil, err
	}
	if n.postW, err = f64Sec(isecPostW, len(n.postRel), "postW"); err != nil {
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
	if n.relStart, err = i32Sec(isecRelStart, N+1, "relStart"); err != nil {
		return nil, err
	}
	if n.relGram, err = i32Sec(isecRelGram, -1, "relGram"); err != nil {
		return nil, err
	}
	if err = checkOffsets(n.relStart, len(n.relGram), "relStart"); err != nil {
		return nil, err
	}
	if n.relW, err = f64Sec(isecRelW, len(n.relGram), "relW"); err != nil {
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
	s.hashes, s.bands = opt.Hashes, opt.Bands
	s.rows = s.hashes / s.bands
	s.seed = opt.Seed
	if len(secs[isecSigs])%8 != 0 || len(secs[isecSigs])/8 != N*s.hashes {
		return nil, badIdx("signature section has %d bytes, want %d", len(secs[isecSigs]), 8*N*s.hashes)
	}
	s.sigs = leU64s(secs[isecSigs])
	if len(secs[isecEmpty]) != N {
		return nil, badIdx("empty-flag section has %d bytes, want %d", len(secs[isecEmpty]), N)
	}
	s.empty = make([]bool, N)
	for i, b := range secs[isecEmpty] {
		switch b {
		case 0:
		case 1:
			s.empty[i] = true
		default:
			return nil, badIdx("empty flag %d holds invalid value %d", i, b)
		}
	}
	if s.keyStart, err = i32Sec(isecKeyStart, N+1, "keyStart"); err != nil {
		return nil, err
	}
	if len(secs[isecKeys])%8 != 0 {
		return nil, badIdx("key section length %d is not a multiple of 8", len(secs[isecKeys]))
	}
	s.keys = leU64s(secs[isecKeys])
	if err = checkOffsets(s.keyStart, len(s.keys), "keyStart"); err != nil {
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

// indexSections validates the prelude, footer, table checksum and every
// section checksum, returning the payload byte ranges by section id.
func indexSections(data []byte) ([][]byte, error) {
	if len(data) < idxPreludeSize+idxFooterSize {
		return nil, badIdx("file too small (%d bytes)", len(data))
	}
	if string(data[:8]) != idxMagic {
		return nil, badIdx("bad magic %q", data[:8])
	}
	foot := data[len(data)-idxFooterSize:]
	if string(foot[24:]) != idxMagic {
		return nil, badIdx("bad trailing magic (file truncated?)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != idxVersion {
		return nil, badIdx("unsupported version %d (want %d)", v, idxVersion)
	}
	if v := binary.LittleEndian.Uint32(foot[12:]); v != idxVersion {
		return nil, badIdx("footer version %d disagrees with prelude", v)
	}
	count := binary.LittleEndian.Uint32(foot[8:])
	if count != idxNumSections || binary.LittleEndian.Uint32(data[12:]) != idxNumSections {
		return nil, badIdx("section count %d, want %d", count, idxNumSections)
	}
	tableOff := binary.LittleEndian.Uint64(foot)
	tableLen := uint64(idxNumSections) * idxTableEntSize
	body := uint64(len(data) - idxFooterSize)
	if body < idxPreludeSize+tableLen || tableOff != body-tableLen {
		return nil, badIdx("section table at %d does not abut the footer", tableOff)
	}
	table := data[tableOff : tableOff+tableLen]
	if crc := crc32.Checksum(table, idxCastagnoli); crc != binary.LittleEndian.Uint32(foot[16:]) {
		return nil, badIdx("section table checksum mismatch")
	}
	secs := make([][]byte, idxNumSections)
	for i := range secs {
		ent := table[i*idxTableEntSize:]
		off := binary.LittleEndian.Uint64(ent)
		length := binary.LittleEndian.Uint64(ent[8:])
		if off%8 != 0 || off < idxPreludeSize || off+length < off || off+length > tableOff {
			return nil, badIdx("section %d range [%d,%d) escapes the file", i, off, off+length)
		}
		sec := data[off : off+length]
		if crc := crc32.Checksum(sec, idxCastagnoli); crc != binary.LittleEndian.Uint32(ent[16:]) {
			return nil, badIdx("section %d checksum mismatch", i)
		}
		secs[i] = sec
	}
	return secs, nil
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
