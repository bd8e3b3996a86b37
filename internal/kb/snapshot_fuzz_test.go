package kb

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sofya/internal/binfmt/binfmttest"
)

// snapshotAllocBound is what decoding n bytes of snapshot may allocate.
// The arrays are views of the input, so the decoder's own allocations
// are one 56-byte rdf.Term and one rank-seen flag per term — a term
// takes at least 33 bytes of input (kind, three string offsets, rank,
// three CSR offsets, litObjs) — and one map entry (about 40 bytes, up
// to twice that after the map's size rounding) per 32-byte plan-stat
// record: under 3·n, plus about 1 KiB that does not depend on the input
// (the section list, the KB and its frozen struct). The 1,664-byte
// golden decodes in 2,312 bytes.
func snapshotAllocBound(n int) uint64 { return 4*uint64(n) + 64<<10 }

// FuzzSnapshotDecode: arbitrary bytes, made checksum-valid again so
// they reach the structural validators, never panic the decoder, fail
// only with ErrBadSnapshot, and never make it allocate out of
// proportion; a snapshot it accepts can be read in full and re-encodes
// to bytes that decode to the same triples and planner statistics.
func FuzzSnapshotDecode(f *testing.F) {
	var golden bytes.Buffer
	if err := gnarlyKB().WriteSnapshot(&golden); err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	for _, cut := range binfmttest.Cuts(golden.Bytes()) {
		f.Add(golden.Bytes()[:cut])
	}
	var sharded bytes.Buffer // a file with planner statistics in it
	if err := Partition(randomKB(11, 60), 2)[1].WriteSnapshot(&sharded); err != nil {
		f.Fatal(err)
	}
	f.Add(sharded.Bytes())

	f.Fuzz(func(t *testing.T, in []byte) { checkSnapshotDecode(t, in) })
}

// TestSnapshotRestampedFlips runs the fuzz property over every
// single-byte flip of the golden with its checksums made valid again:
// each flip is then for the schema's own validators to refuse — or to
// accept as a different, but consistent, KB.
func TestSnapshotRestampedFlips(t *testing.T) {
	var golden bytes.Buffer
	if err := gnarlyKB().WriteSnapshot(&golden); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	data := make([]byte, golden.Len())
	for i := range data {
		copy(data, golden.Bytes())
		data[i] ^= 0x5a
		if checkSnapshotDecode(t, data) {
			accepted++
		}
	}
	// Flips inside string blobs and statistics give other valid KBs;
	// flips in ids, offsets, ranks and counts must not.
	if accepted == 0 || accepted > golden.Len()/2 {
		t.Errorf("%d of %d re-stamped flips were accepted", accepted, golden.Len())
	}
}

// checkSnapshotDecode is the fuzz property; it reports whether the
// input, re-stamped, was accepted.
func checkSnapshotDecode(t *testing.T, in []byte) bool {
	data := append([]byte(nil), in...)
	binfmttest.Restamp(data)
	var k *KB
	var err error
	if got, max := binfmttest.Allocated(func() { k, err = decodeSnapshot(data) }), snapshotAllocBound(len(data)); got > max {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, max)
	}
	if err != nil {
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("error does not wrap ErrBadSnapshot: %v", err)
		}
		return false
	}
	want := k.Triples()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	again, err := decodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	if again.Name() != k.Name() || !reflect.DeepEqual(again.Triples(), want) {
		t.Fatal("re-encoded snapshot decodes to different triples")
	}
	if !reflect.DeepEqual(again.planStats, k.planStats) {
		t.Fatalf("re-encoded snapshot decodes to different planner statistics: %v, was %v", again.planStats, k.planStats)
	}
	return true
}
