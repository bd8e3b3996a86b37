package binfmt_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"sofya/internal/binfmt"
	"sofya/internal/binfmt/binfmttest"
)

var errBadToy = errors.New("toy: bad file")

// toyFormat has one section of each shape the container offers: raw
// bytes and scalars, a string column (two sections), one array per
// element type, and an empty array.
var toyFormat = binfmt.Format{Magic: "TOYFMT\x00\x01", Version: 3, Sections: 8, Err: errBadToy}

type id int32

// toy is the decoded content of a toyFormat file.
type toy struct {
	tag   string
	count uint64
	names []string
	ids   []id
	u32s  []uint32
	u64s  []uint64
	f64s  []float64
	none  []int32
}

func toyValue() toy {
	return toy{
		tag:   "odd", // 3 bytes: everything after it needs padding
		count: 1<<40 + 7,
		names: []string{"alpha", "", "β-γ", "delta"},
		ids:   []id{-1, 0, 1, math.MaxInt32, math.MinInt32},
		u32s:  []uint32{0, 1, 0xdeadbeef},
		u64s:  []uint64{0, 1 << 63, 0x0102030405060708},
		f64s:  []float64{0, -0.0, math.Pi, math.Inf(-1), math.SmallestNonzeroFloat64},
	}
}

func (v toy) write(out io.Writer, f binfmt.Format) error {
	w := binfmt.NewWriter(out, f)
	w.Section()
	w.U32(uint32(len(v.tag)))
	io.WriteString(w, v.tag)
	w.U64(v.count)
	w.Strings(len(v.names), func(i int) string { return v.names[i] })
	binfmt.Slice(w, v.ids)
	binfmt.Slice(w, v.u32s)
	binfmt.Slice(w, v.u64s)
	binfmt.Slice(w, v.f64s)
	binfmt.Slice(w, v.none)
	return w.Finish()
}

func encodeToy(t testing.TB, v toy) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.write(&buf, toyFormat); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func decodeToy(data []byte) (v toy, err error) {
	r, err := toyFormat.Open(data)
	if err != nil {
		return v, err
	}
	meta := r.Bytes(0)
	if len(meta) < 4 || len(meta) != 4+int(meta[0])+8 {
		return v, toyFormat.Errorf("meta section of %d bytes", len(meta))
	}
	v.tag = string(meta[4 : 4+meta[0]])
	for i, b := range meta[4+meta[0]:] {
		v.count |= uint64(b) << (8 * i)
	}
	names, err := r.Strings(1, 2, -1, "name offsets")
	if err != nil {
		return v, err
	}
	for i := 0; i < names.Len(); i++ {
		v.names = append(v.names, names.At(i))
	}
	if v.ids, err = binfmt.View[id](r, 3, -1, "ids"); err != nil {
		return v, err
	}
	if v.u32s, err = binfmt.View[uint32](r, 4, -1, "u32s"); err != nil {
		return v, err
	}
	if v.u64s, err = binfmt.View[uint64](r, 5, len(v.u32s), "u64s"); err != nil {
		return v, err
	}
	if v.f64s, err = binfmt.View[float64](r, 6, -1, "f64s"); err != nil {
		return v, err
	}
	v.none, err = binfmt.View[int32](r, 7, 0, "none")
	return v, err
}

// sameToy compares bitwise, so that -0.0 and infinities count.
func sameToy(a, b toy) bool {
	bits := func(f []float64) (out []uint64) {
		for _, x := range f {
			out = append(out, math.Float64bits(x))
		}
		return out
	}
	fa, fb := bits(a.f64s), bits(b.f64s)
	a.f64s, b.f64s = nil, nil
	return reflect.DeepEqual(a, b) && slices.Equal(fa, fb)
}

func TestRoundTrip(t *testing.T) {
	want := toyValue()
	data := encodeToy(t, want)
	got, err := decodeToy(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameToy(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if got.none != nil {
		t.Error("an empty section decodes to a non-nil slice")
	}
	if !bytes.Equal(encodeToy(t, got), data) {
		t.Error("decoded value re-encodes to different bytes")
	}
	// The layout, by hand: prelude, then the 15-byte meta section at 16,
	// padded so that the next one starts at 32.
	if string(data[:8]) != toyFormat.Magic || string(data[len(data)-8:]) != toyFormat.Magic {
		t.Error("magic missing at one end")
	}
	if !bytes.Equal(data[8:16], []byte{3, 0, 0, 0, 8, 0, 0, 0}) {
		t.Errorf("prelude version/count = % x", data[8:16])
	}
	if !bytes.Equal(data[16:32], append([]byte{3, 0, 0, 0, 'o', 'd', 'd', 7, 0, 0, 0, 0, 1, 0, 0}, 0)) {
		t.Errorf("meta section + padding = % x", data[16:32])
	}
	if cuts := binfmttest.Cuts(data); cuts[0] != 16 || cuts[1] != 32 {
		t.Errorf("sections begin at %v, want 16, 32, …", cuts)
	}
}

// TestViewsAliasAlignedData: on a little-endian host a view of aligned
// data is the data, not a copy — the property snapshots are mapped for.
func TestViewsAliasAlignedData(t *testing.T) {
	if !binfmt.HostLittleEndian() {
		t.Skip("big-endian host: views are decoded copies")
	}
	data := encodeToy(t, toyValue())
	r, err := toyFormat.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := binfmt.View[id](r, 3, -1, "ids")
	if err != nil {
		t.Fatal(err)
	}
	names, err := r.Strings(1, 2, 4, "name offsets")
	if err != nil {
		t.Fatal(err)
	}
	if names.At(0) != "alpha" || ids[2] != 1 {
		t.Fatalf("views read %q, %d", names.At(0), ids[2])
	}
	if unsafe.StringData(names.At(1)) != nil {
		t.Error("an empty string points into the file: one more pointer per string for the collector to look up")
	}
	r.Bytes(3)[8] = 9 // ids[2], low byte
	r.Bytes(2)[0] = 'A'
	if ids[2] != 9 || names.At(0) != "Alpha" {
		t.Errorf("views do not alias the file: ids[2] = %d, name 0 = %q", ids[2], names.At(0))
	}
}

// TestMisalignedDataDecodes: the same file at an odd address cannot be
// aliased as wider elements and must decode to the same value.
func TestMisalignedDataDecodes(t *testing.T) {
	want := toyValue()
	data := encodeToy(t, want)
	shifted := append(make([]byte, 1, len(data)+1), data...)[1:]
	got, err := decodeToy(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if !sameToy(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if binfmt.HostLittleEndian() {
		shifted[binfmttest.Cuts(shifted)[3]] ^= 0xff // first byte of the ids section
		if got.ids[0] != want.ids[0] {
			t.Error("view of misaligned data aliases it")
		}
	}
}

// TestBigEndianHostPaths: with the byte swaps forced on, arrays go out
// element-reversed (on this host: big-endian) and read back to the same
// values; scalars and the container itself do not change. The value has
// no strings: their offsets are written as scalars and read as an
// array, which only agree where the swap is really needed.
func TestBigEndianHostPaths(t *testing.T) {
	if !binfmt.HostLittleEndian() {
		t.Skip("already a big-endian host")
	}
	want := toyValue()
	want.names = nil
	want.ids = make([]id, 300) // more than one 512-byte swap chunk
	for i := range want.ids {
		want.ids[i] = id(i * 0x01010101)
	}
	native := encodeToy(t, want)
	defer binfmt.ForceBigEndian()()
	swapped := encodeToy(t, want)
	if len(swapped) != len(native) {
		t.Fatalf("swapped file has %d bytes, native %d", len(swapped), len(native))
	}
	cuts := binfmttest.Cuts(native)
	if !bytes.Equal(swapped[:cuts[3]], native[:cuts[3]]) {
		t.Error("bytes before the first array section differ")
	}
	for i := 0; i < len(want.ids); i++ {
		n, s := native[cuts[3]+4*i:][:4], swapped[cuts[3]+4*i:][:4]
		if n[0] != s[3] || n[1] != s[2] || n[2] != s[1] || n[3] != s[0] {
			t.Fatalf("ids[%d]: native % x, swapped % x", i, n, s)
		}
	}
	got, err := decodeToy(swapped)
	if err != nil {
		t.Fatal(err)
	}
	if !sameToy(got, want) {
		t.Fatal("swapped file decodes to a different value")
	}
}

func TestContainer(t *testing.T) {
	binfmttest.Container(t, toyFormat, encodeToy(t, toyValue()), func(data []byte) error {
		_, err := decodeToy(data)
		return err
	})
}

// TestTypedViewChecks: past the checksums, a section whose length does
// not fit its element type or the count its schema expects, and a
// string column whose offsets leave the blob, fail with the sentinel.
func TestTypedViewChecks(t *testing.T) {
	reject := func(what string, v toy, mutate func(data []byte)) {
		t.Helper()
		data := encodeToy(t, v)
		if mutate != nil {
			mutate(data)
			binfmttest.Restamp(data)
		}
		if _, err := decodeToy(data); !errors.Is(err, errBadToy) {
			t.Errorf("%s: err = %v, want errBadToy", what, err)
		}
	}
	v := toyValue()
	v.u64s = v.u64s[:2]
	reject("u64 count differs from the expected one", v, nil)

	entry := func(data []byte, sec int) []byte {
		cuts := binfmttest.Cuts(data)
		return data[cuts[len(cuts)-2]+24*sec:]
	}
	reject("section length not a multiple of the element size", toyValue(), func(data []byte) {
		entry(data, 5)[8]-- // u64s: 24 → 23 bytes
	})
	reject("string offsets section empty", toyValue(), func(data []byte) {
		entry(data, 1)[8] = 0
	})
	reject("first string offset not 0", toyValue(), func(data []byte) {
		data[binfmttest.Cuts(data)[1]] = 1
	})
	reject("last string offset short of the blob", toyValue(), func(data []byte) {
		data[binfmttest.Cuts(data)[1]+16]--
	})
	reject("string offsets decrease", toyValue(), func(data []byte) {
		data[binfmttest.Cuts(data)[1]+8] = 2 // offsets 0 5 2 …
	})

	data := encodeToy(t, toyValue())
	r, err := toyFormat.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Strings(1, 2, 3, "name offsets"); !errors.Is(err, errBadToy) {
		t.Errorf("string column of 4 read as 3: err = %v", err)
	}
}

func TestCheckOffsets(t *testing.T) {
	for _, c := range []struct {
		off []int32
		max int
		ok  bool
	}{
		{[]int32{0}, 0, true},
		{[]int32{0, 0, 2, 2, 5}, 5, true},
		{nil, 0, false},
		{[]int32{1, 5}, 5, false},
		{[]int32{0, 4}, 5, false},
		{[]int32{0, 3, 2, 5}, 5, false},
		{[]int32{0, -1, 5}, 5, false},
	} {
		err := toyFormat.CheckOffsets(c.off, c.max, "test")
		if c.ok && err != nil || !c.ok && !errors.Is(err, errBadToy) {
			t.Errorf("CheckOffsets(%v, %d) = %v", c.off, c.max, err)
		}
	}
}

// failAfter fails every write once n bytes have gone through.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errDiskFull
	}
	return len(p), nil
}

func TestWriterErrors(t *testing.T) {
	big := toyValue()
	big.u64s = make([]uint64, 1<<15) // 256 KiB: several buffer flushes
	big.u32s = make([]uint32, 1<<15)
	for _, n := range []int{0, 100, 1 << 16, 1 << 17} {
		if err := big.write(&failAfter{n: n}, toyFormat); !errors.Is(err, errDiskFull) {
			t.Errorf("writer failing after %d bytes: err = %v, want errDiskFull", n, err)
		}
	}

	// A section too few or too many is refused, not written.
	for _, sections := range []int{7, 9} {
		f := toyFormat
		f.Sections = sections
		err := toyValue().write(io.Discard, f)
		if err == nil || !strings.Contains(err.Error(), "8 sections written") {
			t.Errorf("8 sections under a format of %d: err = %v", sections, err)
		}
	}
}

func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.bin")
	onlyFile := func(want ...string) {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range ents {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("directory holds %v, want %v", got, want)
		}
	}

	write := func(out io.Writer) error { return toyValue().write(out, toyFormat) }
	if err := binfmt.WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	onlyFile("toy.bin")
	data, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(data, encodeToy(t, toyValue())) {
		t.Fatalf("file content differs from the encoding (read error %v)", err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v (error %v), want 0644", st.Mode(), err)
	}

	// A failed write leaves the previous file, and nothing else.
	if err := binfmt.WriteFile(path, func(out io.Writer) error {
		out.Write([]byte("partial"))
		return errDiskFull
	}); !errors.Is(err, errDiskFull) {
		t.Errorf("failing write: err = %v, want errDiskFull", err)
	}
	onlyFile("toy.bin")
	if again, _ := os.ReadFile(path); !bytes.Equal(again, data) {
		t.Error("failed write changed the file under the target name")
	}

	// So does a rename that cannot happen, and a directory that is not there.
	if err := os.Mkdir(filepath.Join(dir, "taken"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := binfmt.WriteFile(filepath.Join(dir, "taken"), write); err == nil {
		t.Error("WriteFile over a directory succeeded")
	}
	onlyFile("taken", "toy.bin")
	if err := binfmt.WriteFile(filepath.Join(dir, "absent", "toy.bin"), write); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
