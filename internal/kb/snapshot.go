package kb

// snapshot.go persists the read index: a KB serializes to a versioned,
// checksummed binary snapshot whose sections are the CSR posting arrays
// laid out verbatim (fixed-width little-endian), so OpenSnapshot can
// memory-map the file and serve reads directly from the mapped arrays —
// no N-Triples parse, no re-index, no per-term allocation. ReadSnapshot is
// the portable io.Reader twin that decodes onto the heap. The binary
// layout is documented in ARCHITECTURE.md ("Snapshots" section);
// mmap_unix.go / mmap_other.go hold the platform seam.
//
// A snapshot carries the whole index plus the planner-stat
// overrides installed by SetPlanStats, so a partition shard written to
// a snapshot is a self-contained serving unit: reloading it restores
// the whole-KB planner statistics that keep federated merges
// byte-identical, with no sidecar file.
//
// A snapshot-backed KB has no fact log and is read-only: Add, AddFact
// and Intern of an unseen term panic.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"sofya/internal/binfmt"
	"sofya/internal/rdf"
)

// Section ids, in file order. The section table is indexed by these
// constants, so the order is part of the format.
const (
	secMeta         = iota // nameLen u32 | name | numTerms u64 | numTriples u64
	secTermKinds           // numTerms × u8 (rdf.Kind)
	secTermValOff          // (numTerms+1) × u32 byte offsets into secTermValBlob
	secTermValBlob         // concatenated term values
	secTermDTOff           // (numTerms+1) × u32 offsets into secTermDTBlob
	secTermDTBlob          // concatenated literal datatype IRIs
	secTermLangOff         // (numTerms+1) × u32 offsets into secTermLangBlob
	secTermLangBlob        // concatenated language tags
	secRank                // numTerms × i32 term sort ranks
	secSpoOff              // (numTerms+1) × i32
	secSpoPred             // E_spo × i32
	secSpoPost             // (E_spo+1) × i32
	secSpoObj              // spoPost[E_spo] × i32
	secPosOff              // (numTerms+1) × i32
	secPosObjE             // E_pos × i32
	secPosPost             // (E_pos+1) × i32
	secPosSub              // posPost[E_pos] × i32
	secPsoOff              // (numTerms+1) × i32
	secPsoSubE             // E_pso × i32
	secPsoPost             // (E_pso+1) × i32
	secPsoObj              // psoPost[E_pso] × i32
	secRelations           // |relations| × i32
	secPlanStats           // count u64 | count × {pred, facts, subjects, objects: i64}
	numSections
)

// ErrBadSnapshot is wrapped by every load-time failure caused by the
// file itself (bad magic, version mismatch, checksum failure,
// inconsistent section layout) — as opposed to I/O errors.
var ErrBadSnapshot = errors.New("kb: invalid or corrupt snapshot")

// snapFormat is the snapshot format over the binfmt container. The
// magic's final byte is the major format generation (bumped only on
// incompatible relayouts).
var snapFormat = binfmt.Format{Magic: "SOFYAKB\x01", Version: 2, Sections: numSections, Err: ErrBadSnapshot}

var badSnap = snapFormat.Errorf

// WriteSnapshot serializes the KB — term dictionary, CSR posting
// arrays, per-predicate statistics and planner-stat overrides — as a
// binary snapshot that OpenSnapshot can serve by memory-mapping. The
// output is deterministic: the same KB content and interning order
// produce byte-identical snapshots.
func (k *KB) WriteSnapshot(out io.Writer) error {
	fr := k.index()
	nt := len(k.terms)

	w := binfmt.NewWriter(out, snapFormat)

	w.Section() // secMeta
	w.U32(uint32(len(k.name)))
	w.Write([]byte(k.name))
	w.U64(uint64(nt))
	w.U64(uint64(k.size))

	w.Section() // secTermKinds
	kinds := make([]byte, nt)
	for i, t := range k.terms {
		kinds[i] = byte(t.Kind)
	}
	w.Write(kinds)

	// The three string columns: a u32 offsets section then the blob.
	w.Strings(nt, func(i int) string { return k.terms[i].Value })
	w.Strings(nt, func(i int) string { return k.terms[i].Datatype })
	w.Strings(nt, func(i int) string { return k.terms[i].Lang })

	// The CSR arrays, verbatim.
	binfmt.Slice(w, fr.rank)
	binfmt.Slice(w, fr.spoOff)
	binfmt.Slice(w, fr.spoPred)
	binfmt.Slice(w, fr.spoPost)
	binfmt.Slice(w, fr.spoObj)
	binfmt.Slice(w, fr.posOff)
	binfmt.Slice(w, fr.posObjE)
	binfmt.Slice(w, fr.posPost)
	binfmt.Slice(w, fr.posSub)
	binfmt.Slice(w, fr.psoOff)
	binfmt.Slice(w, fr.psoSubE)
	binfmt.Slice(w, fr.psoPost)
	binfmt.Slice(w, fr.psoObj)
	binfmt.Slice(w, fr.relations)

	// secPlanStats, sorted by predicate id for determinism.
	w.Section()
	preds := make([]TermID, 0, len(k.planStats))
	for p := range k.planStats {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	w.U64(uint64(len(preds)))
	for _, p := range preds {
		s := k.planStats[p]
		w.U64(uint64(int64(p)))
		w.U64(uint64(int64(s.Facts)))
		w.U64(uint64(int64(s.Subjects)))
		w.U64(uint64(int64(s.Objects)))
	}
	return w.Finish()
}

// WriteSnapshotFile is WriteSnapshot to a file. The write is atomic
// (temp file + rename), so an interrupted write never leaves a
// truncated snapshot under the target name.
func (k *KB) WriteSnapshotFile(path string) error {
	return binfmt.WriteFile(path, k.WriteSnapshot)
}

// ---------------------------------------------------------------------
// Reading

// snapMapping keeps a memory-mapped snapshot alive while a KB serves
// from it.
type snapMapping struct{ data []byte }

func (m *snapMapping) close() error { return munmapFile(m.data) }

// OpenSnapshot memory-maps a snapshot file and returns a KB serving
// frozen reads directly from the mapped arrays. Opening verifies every
// section checksum (one sequential pass, no decoding) but performs no
// parsing and no re-indexing: cold-start cost is I/O-bound, independent
// of how long the original N-Triples parse took. On platforms without
// memory mapping the file is read onto the heap instead (identical
// behavior, higher resident memory).
//
// The returned KB answers every read exactly like the KB that wrote the
// snapshot — including iteration orders and the planner-stat overrides
// a partition shard carries — so an endpoint over a reopened snapshot
// is byte-identical to one over the original. It is read-only. Call
// Close to unmap when discarding the KB; neither the KB nor previously
// obtained Terms may be used after Close.
func OpenSnapshot(path string) (*KB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > math.MaxInt {
		return nil, badSnap("%s: file too large to map (%d bytes)", path, st.Size())
	}
	data, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// No mapping on this platform (or mapping failed): heap load.
		k, rerr := ReadSnapshot(f)
		if rerr != nil {
			return nil, fmt.Errorf("kb: open snapshot %s: %w", path, rerr)
		}
		return k, nil
	}
	k, err := decodeSnapshot(data)
	if err != nil {
		munmapFile(data)
		return nil, fmt.Errorf("kb: open snapshot %s: %w", path, err)
	}
	k.snap = &snapMapping{data: data}
	return k, nil
}

// ReadSnapshot decodes a snapshot from r onto the heap: the portable
// (and io.Reader-friendly) twin of OpenSnapshot, with the same
// verification and the same resulting KB semantics.
func ReadSnapshot(r io.Reader) (*KB, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// decodeSnapshot validates data and builds a KB whose frozen arrays,
// term strings and dictionary alias data wherever the host allows.
func decodeSnapshot(data []byte) (*KB, error) {
	file, err := snapFormat.Open(data)
	if err != nil {
		return nil, err
	}

	// Meta.
	meta := file.Bytes(secMeta)
	if len(meta) < 4 {
		return nil, badSnap("meta section too short")
	}
	nameLen := binary.LittleEndian.Uint32(meta)
	if uint64(len(meta)) != 4+uint64(nameLen)+16 {
		return nil, badSnap("meta section length %d inconsistent with name length %d", len(meta), nameLen)
	}
	name := string(meta[4 : 4+nameLen])
	ntU := binary.LittleEndian.Uint64(meta[4+nameLen:])
	size := binary.LittleEndian.Uint64(meta[4+nameLen+8:])
	if ntU > math.MaxInt32 {
		return nil, badSnap("term count %d exceeds int32 id space", ntU)
	}
	nt := int(ntU)

	// Terms. Their strings share the file's storage, which is safe
	// because the snapshot bytes are immutable and the mapping is only
	// ever released by an explicit Close.
	kinds := file.Bytes(secTermKinds)
	if len(kinds) != nt {
		return nil, badSnap("term kind section has %d entries, want %d", len(kinds), nt)
	}
	vals, err := file.Strings(secTermValOff, secTermValBlob, nt, "term value offsets")
	if err != nil {
		return nil, err
	}
	dts, err := file.Strings(secTermDTOff, secTermDTBlob, nt, "term datatype offsets")
	if err != nil {
		return nil, err
	}
	langs, err := file.Strings(secTermLangOff, secTermLangBlob, nt, "term lang offsets")
	if err != nil {
		return nil, err
	}
	terms := make([]rdf.Term, nt)
	for i := range terms {
		if rdf.Kind(kinds[i]) > rdf.Blank {
			return nil, badSnap("term %d has invalid kind %d", i, kinds[i])
		}
		terms[i] = rdf.Term{
			Kind:     rdf.Kind(kinds[i]),
			Value:    vals.At(i),
			Datatype: dts.At(i),
			Lang:     langs.At(i),
		}
	}

	// CSR arrays with structural validation: offset arrays must be
	// monotonic and span their value arrays, id arrays must stay inside
	// the term space — a checksum-valid but hand-corrupted file fails
	// here instead of faulting a serving endpoint later.
	idSec := func(sec int, what string) ([]TermID, error) {
		a, err := binfmt.View[TermID](file, sec, -1, what)
		if err != nil {
			return nil, err
		}
		for i, id := range a {
			if id < 0 || int(id) >= nt {
				return nil, badSnap("%s entry %d holds out-of-range term id %d", what, i, id)
			}
		}
		return a, nil
	}

	fr := &frozen{}
	if fr.rank, err = binfmt.View[int32](file, secRank, nt, "rank"); err != nil {
		return nil, err
	}
	// rank must be a permutation of [0,nt): Triples inverts it, and a
	// duplicated rank would silently drop one subject's facts.
	rankSeen := make([]bool, nt)
	for i, r := range fr.rank {
		if r < 0 || int(r) >= nt {
			return nil, badSnap("rank entry %d holds out-of-range rank %d", i, r)
		}
		if rankSeen[r] {
			return nil, badSnap("rank %d assigned to more than one term", r)
		}
		rankSeen[r] = true
	}

	type csr struct {
		offSec, keySec, postSec, valSec int
		off, post                       *[]int32
		keys, vals                      *[]TermID
		name                            string
	}
	for _, c := range []csr{
		{secSpoOff, secSpoPred, secSpoPost, secSpoObj, &fr.spoOff, &fr.spoPost, &fr.spoPred, &fr.spoObj, "spo"},
		{secPosOff, secPosObjE, secPosPost, secPosSub, &fr.posOff, &fr.posPost, &fr.posObjE, &fr.posSub, "pos"},
		{secPsoOff, secPsoSubE, secPsoPost, secPsoObj, &fr.psoOff, &fr.psoPost, &fr.psoSubE, &fr.psoObj, "pso"},
	} {
		if *c.off, err = binfmt.View[int32](file, c.offSec, nt+1, c.name+" offsets"); err != nil {
			return nil, err
		}
		if *c.keys, err = idSec(c.keySec, c.name+" keys"); err != nil {
			return nil, err
		}
		nk := len(*c.keys)
		if err = snapFormat.CheckOffsets(*c.off, nk, c.name); err != nil {
			return nil, err
		}
		// Key entries must be strictly rank-sorted within each bucket:
		// findEntry binary-searches them, so an unsorted (but
		// checksum-consistent) file would silently miss keys.
		keys, off := *c.keys, *c.off
		for x := 0; x < nt; x++ {
			for e := off[x] + 1; e < off[x+1]; e++ {
				if fr.rank[keys[e-1]] >= fr.rank[keys[e]] {
					return nil, badSnap("%s keys not strictly rank-sorted at entry %d", c.name, e)
				}
			}
		}
		if *c.post, err = binfmt.View[int32](file, c.postSec, nk+1, c.name+" postings"); err != nil {
			return nil, err
		}
		if *c.vals, err = idSec(c.valSec, c.name+" values"); err != nil {
			return nil, err
		}
		if err = snapFormat.CheckOffsets(*c.post, len(*c.vals), c.name+" postings"); err != nil {
			return nil, err
		}
	}
	if fr.relations, err = idSec(secRelations, "relations"); err != nil {
		return nil, err
	}
	for i := 1; i < len(fr.relations); i++ {
		if fr.rank[fr.relations[i-1]] >= fr.rank[fr.relations[i]] {
			return nil, badSnap("relations not strictly rank-sorted at entry %d", i)
		}
	}

	// The recorded triple count must agree with the SPO postings (each
	// triple appears there exactly once): Triples() sizes a slice by it.
	if size != uint64(len(fr.spoObj)) {
		return nil, badSnap("meta triple count %d disagrees with %d SPO postings", size, len(fr.spoObj))
	}

	// Planner-stat overrides.
	ps := file.Bytes(secPlanStats)
	if len(ps) < 8 {
		return nil, badSnap("plan stats section too short")
	}
	count := binary.LittleEndian.Uint64(ps)
	// Bound-check before multiplying: a huge count must not overflow
	// 8+count*32 into passing the length test and panicking later.
	if count > uint64(len(ps)-8)/32 || uint64(len(ps)) != 8+count*32 {
		return nil, badSnap("plan stats section length %d inconsistent with count %d", len(ps), count)
	}
	var planStats map[TermID]PredStats
	if count > 0 {
		planStats = make(map[TermID]PredStats, count)
		for i := uint64(0); i < count; i++ {
			rec := ps[8+i*32:]
			pred := int64(binary.LittleEndian.Uint64(rec))
			if pred < 0 || pred >= int64(nt) {
				return nil, badSnap("plan stats record %d holds out-of-range term id %d", i, pred)
			}
			planStats[TermID(pred)] = PredStats{
				Facts:    int(int64(binary.LittleEndian.Uint64(rec[8:]))),
				Subjects: int(int64(binary.LittleEndian.Uint64(rec[16:]))),
				Objects:  int(int64(binary.LittleEndian.Uint64(rec[24:]))),
			}
		}
	}

	// The log and the dedup set stay nil, which makes the KB read-only;
	// the dictionary materializes on first Lookup/Intern (ensureDict).
	k := &KB{name: name, terms: terms, planStats: planStats, size: int(size)}
	k.fr.Store(fr)
	return k, nil
}

// ---------------------------------------------------------------------
// Serving-state transitions

// Mapped reports whether the KB serves from a memory-mapped snapshot.
func (k *KB) Mapped() bool { return k.snap != nil }

// Close releases the memory-mapped snapshot backing a KB returned by
// OpenSnapshot. It is a no-op for heap-backed KBs. Neither the KB nor any Term,
// Triple or query result previously obtained from it may be used after
// Close: their strings alias the unmapped file. The KB's indexes and
// terms are cleared so stale KB use cannot fault on unmapped memory —
// but note what that means: reads on a closed KB see an empty KB
// (lookups miss, queries return no rows) and Term(id) panics; treat
// any such use as a bug, not as data.
func (k *KB) Close() error {
	if k.snap == nil {
		return nil
	}
	m := k.snap
	k.snap = nil
	k.fr.Store(nil)
	k.terms = nil
	k.dict = nil
	k.planStats = nil
	k.size = 0
	return m.close()
}
