package candidates

import (
	"bytes"
	"errors"
	"testing"

	"sofya/internal/binfmt/binfmttest"
)

// indexAllocBound is what decoding n bytes of sidecar may allocate. The
// arrays are views of the input; the decoder's own allocations are a
// 16-byte string header per relation and per gram (each takes at least
// 17 bytes of input), one flag per relation, and the rebuilt bucket
// table: per (relation, band) pair a 12-byte entry and at most two
// 4-byte slots, against the at least 8 bytes of signature the band
// hashes — under 3·n, plus about 1 KiB that does not depend on the
// input. The 4,696-byte golden decodes in 3,728 bytes.
func indexAllocBound(n int) uint64 { return 4*uint64(n) + 64<<10 }

// FuzzIndexDecode: arbitrary bytes, made checksum-valid again so they
// reach the structural validators, never panic the decoder, fail only
// with ErrBadIndex, and never make it allocate out of proportion; a
// sidecar it accepts re-encodes to bytes that decode and re-encode to
// themselves.
func FuzzIndexDecode(f *testing.F) {
	golden := encodeIndex(f, tinyIndex())
	f.Add(golden)
	for _, cut := range binfmttest.Cuts(golden) {
		f.Add(golden[:cut])
	}

	f.Fuzz(func(t *testing.T, in []byte) { checkIndexDecode(t, in) })
}

// TestIndexRestampedFlips runs the fuzz property over every single-byte
// flip of the golden with its checksums made valid again: each flip is
// then for the schema's own validators to refuse — or to accept as a
// different, but consistent, index.
func TestIndexRestampedFlips(t *testing.T) {
	golden := encodeIndex(t, tinyIndex())
	accepted := 0
	data := make([]byte, len(golden))
	for i := range data {
		copy(data, golden)
		data[i] ^= 0x5a
		if checkIndexDecode(t, data) {
			accepted++
		}
	}
	// Most of the file is weights and signatures, any value of which
	// makes another valid index (about 3,300 flips); flips in names
	// (fingerprinted), ids, offsets and idf (derived) must be refused.
	if accepted < len(golden)/2 || accepted > len(golden)*3/4 {
		t.Errorf("%d of %d re-stamped flips were accepted", accepted, len(golden))
	}
}

// checkIndexDecode is the fuzz property; it reports whether the input,
// re-stamped, was accepted.
func checkIndexDecode(t *testing.T, in []byte) bool {
	data := append([]byte(nil), in...)
	binfmttest.Restamp(data)
	var ix *Index
	var err error
	if got, max := binfmttest.Allocated(func() { ix, err = decodeIndex(data) }), indexAllocBound(len(data)); got > max {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), got, max)
	}
	if err != nil {
		if !errors.Is(err, ErrBadIndex) {
			t.Fatalf("error does not wrap ErrBadIndex: %v", err)
		}
		return false
	}
	encoded := encodeIndex(t, ix)
	again, err := decodeIndex(encoded)
	if err != nil {
		t.Fatalf("re-encoded sidecar does not decode: %v", err)
	}
	if !bytes.Equal(encodeIndex(t, again), encoded) {
		t.Fatal("re-encoded sidecar decodes to a different index")
	}
	return true
}
