package candidates

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sofya/internal/binfmt/binfmttest"
	"sofya/internal/endpoint"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// encodeIndex serializes ix to bytes, failing the test on error.
func encodeIndex(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteIndex(&buf); err != nil {
		t.Fatalf("WriteIndex: %v", err)
	}
	return buf.Bytes()
}

// TestParallelBuildByteIdentical pins the tentpole invariant: the
// sampling fan-out must not change the built index. Every relation's
// sample stream is seeded by its own query text, so the serialized
// index bytes must agree at every parallelism.
func TestParallelBuildByteIdentical(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	ref, _ := b.build(t, Options{Parallelism: 1})
	refBytes := encodeIndex(t, ref)
	for _, par := range []int{2, 4, 8} {
		ix, err := Build(b.target, b.rels, b.links, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("Build(parallelism=%d): %v", par, err)
		}
		if got := encodeIndex(t, ix); !bytes.Equal(got, refBytes) {
			t.Fatalf("parallelism %d produced different index bytes (%d vs %d)", par, len(got), len(refBytes))
		}
		if !reflect.DeepEqual(ix, ref) {
			t.Fatalf("parallelism %d index not DeepEqual to serial", par)
		}
	}
}

// TestIndexRoundTrip checks persisted-vs-built equality: the loaded
// index must be structurally identical, re-serialize to the same
// bytes, and probe identically.
func TestIndexRoundTrip(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	built, prBuilt := b.build(t, Options{})
	path := filepath.Join(t.TempDir(), "cand.idx")
	if err := built.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	loaded, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	if !reflect.DeepEqual(built, loaded) {
		t.Fatal("loaded index not DeepEqual to built index")
	}
	if !bytes.Equal(encodeIndex(t, built), encodeIndex(t, loaded)) {
		t.Fatal("loaded index re-serializes to different bytes")
	}
	if built.Fingerprint() != loaded.Fingerprint() {
		t.Fatal("fingerprints disagree")
	}
	prLoaded, err := NewProber(loaded, b.source)
	if err != nil {
		t.Fatalf("NewProber(loaded): %v", err)
	}
	for _, r := range b.world.Report.YagoRelations {
		c1, err1 := prBuilt.TopK(r, 10)
		c2, err2 := prLoaded.TopK(r, 10)
		if err1 != nil || err2 != nil {
			t.Fatalf("TopK errors: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("TopK(%s) differs between built and loaded index", r)
		}
	}
}

// tinyIndex hand-builds a minimal index (no endpoint) so exhaustive
// per-byte corruption stays fast: the file is a few KiB, not the tens
// of KiB a synth world produces.
func tinyIndex() *Index {
	ix := &Index{
		opt: Options{}.normalized(),
		rels: []string{
			"http://t/birthPlace",
			"http://t/deathPlace",
			"http://t/name",
			"http://t/population",
			"http://t/spouse",
		},
	}
	ix.fp = Fingerprint(ix.rels, ix.opt)
	ix.buildNameIndex()
	sets := [][]uint64{
		{3, 7, 12, 40},
		{3, 9, 12},
		{},
		{5, 40, 77, 91, 120},
		{7, 9},
	}
	ix.buildSigIndex(sets)
	return ix
}

// TestOpenIndexEveryByteFlip flips every byte of a serialized index and
// requires each flip to either fail closed with ErrBadIndex or decode
// to content that re-serializes to the original bytes (flips landing in
// alignment padding or reserved footer bytes are harmless by
// construction).
func TestOpenIndexEveryByteFlip(t *testing.T) {
	orig := encodeIndex(t, tinyIndex())
	work := make([]byte, len(orig))
	for i := range orig {
		copy(work, orig)
		work[i] ^= 0x5a
		ix, err := decodeIndex(work)
		if err != nil {
			if !errors.Is(err, ErrBadIndex) {
				t.Fatalf("flip at %d: error %v does not wrap ErrBadIndex", i, err)
			}
			continue
		}
		if got := encodeIndex(t, ix); !bytes.Equal(got, orig) {
			t.Fatalf("flip at %d decoded to different content", i)
		}
	}
}

// TestOpenIndexTruncated requires every truncation of the file to fail
// closed.
func TestOpenIndexTruncated(t *testing.T) {
	orig := encodeIndex(t, tinyIndex())
	for _, n := range []int{0, 1, 8, 16, len(orig) / 2, len(orig) - 1} {
		if _, err := decodeIndex(orig[:n]); !errors.Is(err, ErrBadIndex) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrBadIndex", n, err)
		}
	}
}

// TestIndexContainer runs the container suite of internal/binfmt
// (flips, truncations, fields disagreeing between the two ends, table
// offsets that wrap, table entries pointing outside the file) against
// an encoded sidecar, through the sidecar decoder.
func TestIndexContainer(t *testing.T) {
	binfmttest.Container(t, idxFormat, encodeIndex(t, tinyIndex()), func(data []byte) error {
		_, err := decodeIndex(data)
		return err
	})
}

func TestFingerprintSemantics(t *testing.T) {
	rels := []string{"http://t/b", "http://t/a", "http://t/c"}
	base := Fingerprint(rels, Options{})
	sorted := append([]string(nil), rels...)
	sorted[0], sorted[1] = sorted[1], sorted[0]
	if Fingerprint(sorted, Options{}) != base {
		t.Error("fingerprint depends on inventory order")
	}
	if Fingerprint(rels, Options{Parallelism: 8}) != base {
		t.Error("fingerprint depends on Parallelism")
	}
	if Fingerprint(rels, Options{MaxPostings: -1}) != base {
		t.Error("fingerprint distinguishes a clamped MaxPostings from zero options")
	}
	if Fingerprint(rels, Options{MaxPostings: 32}) == base {
		t.Error("fingerprint ignores MaxPostings")
	}
	if Fingerprint(rels[:2], Options{}) == base {
		t.Error("fingerprint ignores inventory content")
	}
}

// TestIndexRefusesOtherParameters: the index parameters are package
// constants, so a sidecar storing other values — its fingerprint and
// checksums made to agree with what it stores — is refused, naming
// both sets, rather than probed with the wrong hashes or weights.
func TestIndexRefusesOtherParameters(t *testing.T) {
	le := binary.LittleEndian
	ix := tinyIndex()
	orig := encodeIndex(t, ix)
	var fp [8]byte
	le.PutUint64(fp[:], ix.Fingerprint())
	at := bytes.Index(orig, fp[:]) // the meta section opens with the fingerprint
	if at < 0 || metaFingerprint(orig[at:at+88], ix.Relations()) != ix.Fingerprint() {
		t.Fatal("meta section not found")
	}
	for name, set := range map[string]func(meta []byte){
		"32 hashes":    func(m []byte) { le.PutUint32(m[40:], 32) },
		"16 bands":     func(m []byte) { le.PutUint32(m[44:], 16) },
		"sample of 32": func(m []byte) { le.PutUint32(m[36:], 32) },
		"4-grams":      func(m []byte) { le.PutUint32(m[48:], 4) },
		"weights 0.5": func(m []byte) {
			le.PutUint64(m[56:], math.Float64bits(0.5))
			le.PutUint64(m[64:], math.Float64bits(0.5))
		},
		"stop frac 0.2":  func(m []byte) { le.PutUint64(m[72:], math.Float64bits(0.2)) },
		"minhash seed 2": func(m []byte) { le.PutUint64(m[80:], 2) },
	} {
		data := bytes.Clone(orig)
		meta := data[at : at+88]
		set(meta)
		le.PutUint64(meta, metaFingerprint(meta, ix.Relations()))
		binfmttest.Restamp(data)
		_, err := decodeIndex(data)
		if !errors.Is(err, ErrBadIndex) || !strings.Contains(err.Error(), "stored parameters") {
			t.Errorf("%s: decode error %v, want ErrBadIndex naming the stored parameters", name, err)
		}
	}
}

// metaFingerprint is Fingerprint over the parameters a meta section
// stores, in Fingerprint's order.
func metaFingerprint(meta []byte, rels []string) uint64 {
	le := binary.LittleEndian
	h := newFP()
	h.u64(idxVersion)
	for _, off := range []int{36, 40, 44, 48} {
		h.u64(uint64(le.Uint32(meta[off:])))
	}
	for _, off := range []int{56, 64, 72} {
		h.u64(le.Uint64(meta[off:]))
	}
	h.u64(uint64(le.Uint32(meta[52:])))
	h.u64(le.Uint64(meta[80:]))
	h.u64(uint64(len(rels)))
	for _, r := range rels {
		h.str(r)
	}
	return h.sum
}

func TestLoadOrBuildFallback(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	built, _ := b.build(t, Options{})
	dir := t.TempDir()
	ctx := context.Background()

	// Empty path: always builds.
	ix, loaded, err := LoadOrBuild(ctx, "", b.target, b.rels, b.links, Options{})
	if err != nil || loaded {
		t.Fatalf("LoadOrBuild(\"\") = loaded %v, err %v", loaded, err)
	}
	if !reflect.DeepEqual(ix, built) {
		t.Fatal("built index differs from reference")
	}

	// Valid sidecar: loads.
	path := filepath.Join(dir, "cand.idx")
	if err := built.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	ix, loaded, err = LoadOrBuild(ctx, path, b.target, b.rels, b.links, Options{})
	if err != nil || !loaded {
		t.Fatalf("LoadOrBuild(valid) = loaded %v, err %v", loaded, err)
	}
	if !reflect.DeepEqual(ix, built) {
		t.Fatal("loaded index differs from built")
	}

	// Missing file: builds.
	ix, loaded, err = LoadOrBuild(ctx, filepath.Join(dir, "absent.idx"), b.target, b.rels, b.links, Options{})
	if err != nil || loaded {
		t.Fatalf("LoadOrBuild(missing) = loaded %v, err %v", loaded, err)
	}
	if !reflect.DeepEqual(ix, built) {
		t.Fatal("fallback index differs from built")
	}

	// Corrupt sidecar: builds.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	bad := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, loaded, err = LoadOrBuild(ctx, bad, b.target, b.rels, b.links, Options{})
	if err != nil || loaded {
		t.Fatalf("LoadOrBuild(corrupt) = loaded %v, err %v", loaded, err)
	}
	if !reflect.DeepEqual(ix, built) {
		t.Fatal("fallback index differs from built")
	}

	// Stale sidecar (different options): builds with the caller's
	// options, and openMatching reports the mismatch as ErrStaleIndex.
	if _, err := openMatching(path, Fingerprint(b.rels, Options{MaxPostings: 16})); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("openMatching(stale) error %v does not wrap ErrStaleIndex", err)
	}
	ix, loaded, err = LoadOrBuild(ctx, path, b.target, b.rels, b.links, Options{MaxPostings: 16})
	if err != nil || loaded {
		t.Fatalf("LoadOrBuild(stale) = loaded %v, err %v", loaded, err)
	}
	if got := ix.Options().MaxPostings; got != 16 {
		t.Fatalf("fallback build used MaxPostings %d, want 16", got)
	}
}

// flakyEndpoint fails the sampling probe for a chosen set of relations,
// to exercise the joined build error.
type flakyEndpoint struct {
	endpoint.Endpoint
	fail map[string]bool
}

func (f *flakyEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := f.Endpoint.Prepare(tmpl, params...)
	if err != nil {
		return nil, err
	}
	return &flakyPrepared{PreparedQuery: pq, fail: f.fail}, nil
}

type flakyPrepared struct {
	endpoint.PreparedQuery
	fail map[string]bool
}

func (f *flakyPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	for rel := range f.fail {
		if strings.Contains(args[0].Key(), rel) {
			return nil, fmt.Errorf("synthetic probe failure for %s", rel)
		}
	}
	return f.PreparedQuery.SelectCtx(ctx, args...)
}

// TestBuildJoinsAllFailures checks that a failing probe no longer
// aborts the pass: every failing relation is reported, in IRI order,
// identically at every parallelism.
func TestBuildJoinsAllFailures(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	if len(b.rels) < 4 {
		t.Fatal("world too small for the failure test")
	}
	failing := []string{b.rels[1], b.rels[len(b.rels)-1]}
	flaky := &flakyEndpoint{Endpoint: b.target, fail: map[string]bool{
		failing[0]: true,
		failing[1]: true,
	}}
	var msgs []string
	for _, par := range []int{1, 4} {
		_, err := Build(flaky, b.rels, b.links, Options{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: build succeeded despite failing probes", par)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("sampling 2 of %d relations", len(b.rels))) {
			t.Fatalf("parallelism %d: error lacks failure count: %v", par, msg)
		}
		for _, rel := range failing {
			if !strings.Contains(msg, rel) {
				t.Fatalf("parallelism %d: error omits failing relation %s: %v", par, rel, msg)
			}
		}
		if strings.Index(msg, failing[0]) > strings.Index(msg, failing[1]) {
			t.Fatalf("parallelism %d: failures not ordered by relation IRI: %v", par, msg)
		}
		msgs = append(msgs, msg)
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("error differs across parallelism:\n%s\nvs\n%s", msgs[0], msgs[1])
	}
}

func TestBuildCtxCancelled(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range []int{1, 4} {
		_, err := BuildCtx(ctx, b.target, b.rels, b.links, Options{Parallelism: par})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: error %v does not wrap context.Canceled", par, err)
		}
	}
}

// TestPostingTruncation checks the df-cap: no posting list outgrows the
// cap, the drop accounting is live, and the exact scorer — which reads
// the untruncated per-relation vectors — is unaffected, so a capped
// index still measures its own recall against an exact reference.
func TestPostingTruncation(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	full, prFull := b.build(t, Options{})
	if g, d := full.TruncationStats(); g != 0 || d != 0 {
		t.Fatalf("uncapped index reports truncation %d/%d", g, d)
	}
	const cap = 2
	capped, prCapped := b.build(t, Options{MaxPostings: cap})
	grams, dropped := capped.TruncationStats()
	if grams == 0 || dropped == 0 {
		t.Fatal("cap of 2 truncated nothing on a tiny world")
	}
	n := &capped.name
	for g := 0; g < len(n.grams); g++ {
		if run := n.gramStart[g+1] - n.gramStart[g]; int(run) > cap {
			t.Fatalf("gram %d posting list has %d entries after cap %d", g, run, cap)
		}
		for j := n.gramStart[g] + 1; j < n.gramStart[g+1]; j++ {
			if n.postRel[j-1] >= n.postRel[j] {
				t.Fatalf("gram %d postings unsorted after truncation", g)
			}
		}
	}
	if !reflect.DeepEqual(capped.name.relGram, full.name.relGram) ||
		!reflect.DeepEqual(capped.name.relW, full.name.relW) {
		t.Fatal("truncation altered the per-relation exact vectors")
	}
	for _, r := range b.world.Report.YagoRelations {
		e1, err1 := prFull.ExactTopK(r, 10)
		e2, err2 := prCapped.ExactTopK(r, 10)
		if err1 != nil || err2 != nil {
			t.Fatalf("ExactTopK errors: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(e1, e2) {
			t.Fatalf("ExactTopK(%s) differs on capped index", r)
		}
	}

	// A capped index round-trips like any other.
	path := filepath.Join(t.TempDir(), "capped.idx")
	if err := capped.WriteIndexFile(path); err != nil {
		t.Fatalf("WriteIndexFile: %v", err)
	}
	loaded, err := OpenIndex(path)
	if err != nil {
		t.Fatalf("OpenIndex: %v", err)
	}
	if !reflect.DeepEqual(capped, loaded) {
		t.Fatal("capped index did not round-trip")
	}
}

// BenchmarkIndexBuildParallel is BenchmarkIndexBuild with the sampling
// pass fanned out over GOMAXPROCS workers.
func BenchmarkIndexBuildParallel(b *testing.B) {
	bed, _, _ := benchBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(bed.target, bed.rels, bed.links, Options{Parallelism: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenIndex measures restoring the 4000-relation index from
// its sidecar — the restart path that skips sampling entirely.
func BenchmarkOpenIndex(b *testing.B) {
	_, ix, _ := benchBed(b)
	path := filepath.Join(b.TempDir(), "bench.idx")
	if err := ix.WriteIndexFile(path); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenIndex(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIndexGoldenBytes pins format version 1 to the byte: sidecars
// written by one commit are opened by the next, so WriteIndex must keep
// emitting exactly these bytes (magic, section order, padding and
// reserved bytes included).
func TestIndexGoldenBytes(t *testing.T) {
	data := encodeIndex(t, tinyIndex())
	const wantLen, wantSum = 4696, "ab3ea1d9a401402b09895fffdd03553dff16af85400fb2d321d8a74c651fd78c"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); len(data) != wantLen || got != wantSum {
		t.Fatalf("WriteIndex(tinyIndex()) = %d bytes, sha256 %s; want %d bytes, %s", len(data), got, wantLen, wantSum)
	}
}
