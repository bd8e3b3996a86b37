package kb

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sofya/internal/binfmt/binfmttest"
	"sofya/internal/rdf"
)

// gnarlyKB builds a KB exercising every term flavor the model has:
// IRIs, plain / language-tagged / typed literals, xsd:string
// canonicalization, blank nodes, escapes, unicode, empty lexical forms.
func gnarlyKB() *KB {
	k := New("gnarly")
	s1 := rdf.NewIRI("http://x/s1")
	s2 := rdf.NewIRI("http://x/s2")
	b := rdf.NewBlank("n0")
	p1 := rdf.NewIRI("http://x/p1")
	p2 := rdf.NewIRI("http://x/p2")
	lit := rdf.NewIRI("http://x/lit")
	k.Add(rdf.NewTriple(s1, p1, s2))
	k.Add(rdf.NewTriple(s1, p1, b))
	k.Add(rdf.NewTriple(b, p2, s1))
	k.Add(rdf.NewTriple(s1, lit, rdf.NewLiteral("plain")))
	k.Add(rdf.NewTriple(s1, lit, rdf.NewTypedLiteral("typed-as-string", rdf.XSDString)))
	k.Add(rdf.NewTriple(s1, lit, rdf.NewLangLiteral("hello", "en")))
	k.Add(rdf.NewTriple(s2, lit, rdf.NewLangLiteral("bonjour", "fr")))
	k.Add(rdf.NewTriple(s2, lit, rdf.NewTypedLiteral("1984", rdf.XSDGYear)))
	k.Add(rdf.NewTriple(s2, lit, rdf.NewLiteral("")))
	k.Add(rdf.NewTriple(s2, lit, rdf.NewLiteral("esc \"q\"\\\n\tzürich ✓")))
	k.Add(rdf.NewTriple(s2, p2, s1))
	k.Add(rdf.NewTriple(s2, p1, s1))
	return k
}

// snapshotOf serializes k and decodes it back through the heap reader.
func snapshotOf(t *testing.T, k *KB) *KB {
	t.Helper()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	return got
}

// assertKBEquivalent checks every public read accessor agrees between
// want (the original, frozen) and got (a snapshot reload).
func assertKBEquivalent(t *testing.T, want, got *KB) {
	t.Helper()
	if got.Name() != want.Name() {
		t.Errorf("Name = %q, want %q", got.Name(), want.Name())
	}
	if got.Size() != want.Size() {
		t.Errorf("Size = %d, want %d", got.Size(), want.Size())
	}
	if got.NumTerms() != want.NumTerms() {
		t.Fatalf("NumTerms = %d, want %d", got.NumTerms(), want.NumTerms())
	}
	for id := TermID(0); int(id) < want.NumTerms(); id++ {
		if got.Term(id) != want.Term(id) {
			t.Fatalf("Term(%d) = %v, want %v", id, got.Term(id), want.Term(id))
		}
		if lid := got.Lookup(want.Term(id)); lid != id {
			t.Fatalf("Lookup(%v) = %d, want %d", want.Term(id), lid, id)
		}
	}
	if !reflect.DeepEqual(got.Relations(), want.Relations()) {
		t.Errorf("Relations diverge: %v vs %v", got.Relations(), want.Relations())
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Errorf("Triples diverge")
	}
	for id := TermID(0); int(id) < want.NumTerms(); id++ {
		if !sameIDs(got.PredicatesOfSubject(id), want.PredicatesOfSubject(id)) {
			t.Errorf("PredicatesOfSubject(%d) diverges", id)
		}
		if !sameIDs(got.SubjectsWith(id), want.SubjectsWith(id)) {
			t.Errorf("SubjectsWith(%d) diverges", id)
		}
		if got.NumFactsOf(id) != want.NumFactsOf(id) ||
			got.NumSubjectsOf(id) != want.NumSubjectsOf(id) ||
			got.NumObjectsOf(id) != want.NumObjectsOf(id) {
			t.Errorf("cardinalities of %d diverge", id)
		}
		for o := TermID(0); int(o) < want.NumTerms(); o++ {
			if !sameIDs(got.ObjectsOf(id, o), want.ObjectsOf(id, o)) {
				t.Errorf("ObjectsOf(%d,%d) diverges", id, o)
			}
			if !sameIDs(got.SubjectsOf(id, o), want.SubjectsOf(id, o)) {
				t.Errorf("SubjectsOf(%d,%d) diverges", id, o)
			}
			if !sameIDs(got.PredicatesBetween(id, o), want.PredicatesBetween(id, o)) {
				t.Errorf("PredicatesBetween(%d,%d) diverges", id, o)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for name, build := range map[string]func() *KB{
		"gnarly": gnarlyKB,
		"random": func() *KB { return randomKB(42, 400) },
		"empty":  func() *KB { return New("empty") },
	} {
		t.Run(name, func(t *testing.T) {
			k := build()
			k.Freeze()
			assertKBEquivalent(t, k, snapshotOf(t, k))
		})
	}
}

// TestSnapshotAfterPostFreezeIntern: terms interned after Freeze (a
// supported operation — they carry no frozen facts) must not produce
// an unloadable snapshot; WriteSnapshot re-freezes to keep the term
// sections and the frozen arrays in one term space.
func TestSnapshotAfterPostFreezeIntern(t *testing.T) {
	k := gnarlyKB()
	k.Freeze()
	extra := rdf.NewIRI("http://x/interned-after-freeze")
	id := k.Intern(extra)
	got := snapshotOf(t, k)
	if got.NumTerms() != k.NumTerms() {
		t.Fatalf("NumTerms = %d, want %d", got.NumTerms(), k.NumTerms())
	}
	if lid := got.Lookup(extra); lid != id {
		t.Errorf("post-freeze interned term: Lookup = %d, want %d", lid, id)
	}
	assertKBEquivalent(t, k, got)
}

func TestSnapshotDeterministic(t *testing.T) {
	k := randomKB(7, 300)
	var a, b bytes.Buffer
	if err := k.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteSnapshot calls over the same KB produced different bytes")
	}
}

func TestOpenSnapshotMmap(t *testing.T) {
	k := gnarlyKB()
	k.Freeze()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if !got.Frozen() {
		t.Error("snapshot KB should open frozen")
	}
	assertKBEquivalent(t, k, got)
}

func TestSnapshotAutoThaw(t *testing.T) {
	k := randomKB(3, 200)
	k.Freeze()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	got, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	wasMapped := got.Mapped()
	extra := rdf.NewTriple(rdf.NewIRI("http://x/new-subject"), rdf.NewIRI("http://x/p0"), rdf.NewIRI("http://x/e1"))
	if !got.Add(extra) {
		t.Fatal("Add of a new triple reported not-new")
	}
	if got.Mapped() {
		t.Error("KB still mapped after mutation (auto-thaw should release the mapping)")
	}
	if got.Frozen() {
		t.Error("KB still frozen after mutation")
	}
	if !got.Has(extra) {
		t.Error("new triple missing after auto-thaw")
	}
	// The pre-existing data survived the thaw intact, in the same order.
	k.Add(extra)
	if !reflect.DeepEqual(got.Triples(), k.Triples()) {
		t.Error("triples diverge from the source KB after auto-thaw + same mutation")
	}
	// Re-freezing works and the on-disk file was never touched.
	got.Freeze()
	k.Freeze()
	assertKBEquivalent(t, k, got)
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("snapshot file changed on disk")
	}
	if wasMapped {
		if err := got.Close(); err != nil {
			t.Errorf("Close after thaw: %v", err)
		}
	}
}

// TestSnapshotEscapedTermsSurviveThaw: Terms handed out by a mapped KB
// (whose strings alias the mapping) must stay readable after a
// mutation auto-thaws the KB — the thaw keeps the mapping alive rather
// than unmapping under escaped data.
func TestSnapshotEscapedTermsSurviveThaw(t *testing.T) {
	k := gnarlyKB()
	k.Freeze()
	path := filepath.Join(t.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	escapedTerms := make([]rdf.Term, got.NumTerms())
	for i := range escapedTerms {
		escapedTerms[i] = got.Term(TermID(i))
	}
	escapedTriples := got.Triples()

	got.AddIRIs("http://x/thawer", "http://x/p1", "http://x/s1")

	for i, want := range escapedTerms {
		if want != k.Term(TermID(i)) {
			t.Fatalf("escaped term %d unreadable or changed after thaw", i)
		}
	}
	for i, tr := range k.Triples() {
		if escapedTriples[i] != tr {
			t.Fatalf("escaped triple %d unreadable or changed after thaw", i)
		}
	}
}

// TestWriteSnapshotFileAtomic: the target path never holds a partial
// file — a failed write leaves the previous snapshot (or nothing).
func TestWriteSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kb.snap")
	if err := gnarlyKB().WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "kb.snap" {
		t.Errorf("temp files left behind: %v", ents)
	}
	if _, err := OpenSnapshot(path); err != nil {
		t.Errorf("written snapshot unreadable: %v", err)
	}
}

func TestSnapshotPreservesPlanStats(t *testing.T) {
	src := randomKB(11, 500)
	shards := Partition(src, 3)
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := sh.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range src.Relations() {
			term := src.Term(p)
			id := got.Lookup(term)
			if id == NoTerm {
				t.Fatalf("shard %d snapshot lost planner-stat predicate %v", i, term)
			}
			if got.PlanFactsOf(id) != src.NumFactsOf(p) ||
				got.PlanSubjectsOf(id) != src.NumSubjectsOf(p) ||
				got.PlanObjectsOf(id) != src.NumObjectsOf(p) {
				t.Errorf("shard %d snapshot plans %v with local stats, want global", i, term)
			}
		}
	}
}

func TestSnapshotLookupCanonicalizes(t *testing.T) {
	k := New("canon")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/s"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("lex")))
	got := snapshotOf(t, k)
	plain := got.Lookup(rdf.NewLiteral("lex"))
	typed := got.Lookup(rdf.NewTypedLiteral("lex", rdf.XSDString))
	if plain == NoTerm || plain != typed {
		t.Errorf("xsd:string canonicalization lost: plain=%d typed=%d", plain, typed)
	}
}

// TestSnapshotCorruption flips every byte of a snapshot, one at a time.
// Every flip must either fail to load (checksums, structure checks) or
// — for the handful of uncovered alignment-padding bytes — load a KB
// identical to the original. No flip may load divergent data or panic.
func TestSnapshotCorruption(t *testing.T) {
	k := gnarlyKB()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	k.Freeze()
	wantTriples := k.Triples()

	data := make([]byte, len(orig))
	for i := range orig {
		copy(data, orig)
		data[i] ^= 0x5a
		got, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("flip at %d: error not wrapped in ErrBadSnapshot: %v", i, err)
			}
			continue
		}
		if !reflect.DeepEqual(got.Triples(), wantTriples) {
			t.Fatalf("flip at %d loaded successfully with divergent data", i)
		}
	}
}

func TestSnapshotTruncated(t *testing.T) {
	k := gnarlyKB()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for _, n := range []int{0, 1, 7, 16, 40, len(orig) / 2, len(orig) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(orig[:n])); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrBadSnapshot", n, err)
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("NOTASNAPSHOTFILE-NOTASNAPSHOTFILE-NOTASNAPSHOTFILE"))); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("garbage file: err = %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotContainer runs the container suite of internal/binfmt
// (flips, truncations, fields disagreeing between the two ends, table
// offsets that wrap, table entries pointing outside the file) against
// an encoded snapshot, through the snapshot decoder.
func TestSnapshotContainer(t *testing.T) {
	var buf bytes.Buffer
	if err := gnarlyKB().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	binfmttest.Container(t, snapFormat, buf.Bytes(), func(data []byte) error {
		_, err := decodeSnapshot(data)
		return err
	})
}

func TestOpenSnapshotMissingFile(t *testing.T) {
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("OpenSnapshot of a missing file succeeded")
	}
}

// TestSnapshotNTRoundTrip pins the full persistence cycle: N-Triples →
// KB → snapshot → KB → N-Triples reproduces the serialization exactly.
func TestSnapshotNTRoundTrip(t *testing.T) {
	k := randomKB(5, 300)
	var nt1 bytes.Buffer
	if err := k.WriteNT(&nt1); err != nil {
		t.Fatal(err)
	}
	got := snapshotOf(t, k)
	var nt2 bytes.Buffer
	if err := got.WriteNT(&nt2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nt1.Bytes(), nt2.Bytes()) {
		t.Error("N-Triples serialization diverges after a snapshot round trip")
	}
}

func BenchmarkSnapshotWrite(b *testing.B) {
	k := randomKB(1, 5000)
	k.Freeze()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := k.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotOpen(b *testing.B) {
	k := randomKB(1, 5000)
	path := filepath.Join(b.TempDir(), "kb.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := OpenSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		got.Close()
	}
}

// TestSnapshotGoldenBytes pins format version 1 to the byte: fixture
// caches written by one commit are opened by the next, so WriteSnapshot
// must keep emitting exactly these bytes (magic, section order, padding
// and reserved bytes included).
func TestSnapshotGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := gnarlyKB().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSum = 1664, "e9bb1256d197a98b7cbc1f7e8646f3ceabcbec5fc9bb0c61306126b41553ccfb"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != wantLen || got != wantSum {
		t.Fatalf("WriteSnapshot(gnarlyKB()) = %d bytes, sha256 %s; want %d bytes, %s", buf.Len(), got, wantLen, wantSum)
	}
}
