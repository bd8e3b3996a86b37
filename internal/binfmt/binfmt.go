// Package binfmt is the binary container under KB snapshots
// (internal/kb) and candidate-index sidecars (internal/candidates): a
// fixed number of little-endian sections between a prelude and a
// checksummed section table.
//
//	offset 0   prelude (16B): magic | version u32 | sectionCount u32
//	           sections, each 8-byte aligned, in fixed id order
//	           section table: 24B per section — offset u64 | length u64 | crc32c u32 | reserved u32
//	end-32     footer (32B): tableOff u64 | sectionCount u32 | version u32
//	                         | tableCRC u32 | reserved u32 | magic again
//
// The table sits at the end so writing is single-pass (a section's
// length and checksum are known only once it is written); reading starts
// from the footer. Sections are 8-aligned so that a mapped or heap-read
// file can be served in place: View aliases a section as a typed slice
// and StringColumn aliases strings into a blob, with no decoding on
// aligned little-endian hosts. A format over the container is a Format
// value, the list of sections it emits, and the validators of its own
// schema; every unsafe cast and every check on an untrusted offset or
// length of the container itself lives here.
package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unsafe"
)

// Format declares one file format over the container.
type Format struct {
	Magic    string // 8 bytes, written at both ends; the last is the major generation
	Version  uint32 // checked on load, at both ends
	Sections int    // exact section count of this version
	Err      error  // sentinel wrapped by every failure caused by the file's bytes
}

const (
	preludeSize = 16
	entrySize   = 24
	footerSize  = 32
)

// Elem is the set of fixed-width element types a section can hold as an
// array. Floats cross as raw IEEE-754 bits, so they round-trip bitwise.
type Elem interface {
	~int32 | ~uint32 | ~uint64 | ~float64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// swapElems reverses the bytes of every size-byte element of raw: the
// conversion between host order and little-endian on a big-endian host.
func swapElems(raw []byte, size int) {
	for i := 0; i+size <= len(raw); i += size {
		slices.Reverse(raw[i : i+size])
	}
}

// Errorf returns an error wrapping the format's sentinel.
func (f Format) Errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", f.Err, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------
// Writing

// Writer emits one file: NewWriter, then for each section Section (or
// Slice, or Strings for two) followed by its bytes, then Finish. It
// tracks the byte offset and the first error, so emitting code stays
// unconditional and checks Finish alone.
type Writer struct {
	f     Format
	bw    *bufio.Writer
	off   uint64
	err   error
	open  bool   // a section has begun and is not yet in the table
	start uint64 // its offset
	crc   uint32 // its running checksum
	table []byte
}

// NewWriter starts a file of format f on w. Output is buffered: string
// columns and small records go out a few bytes at a time, which must
// not become one syscall each when w is a file.
func NewWriter(w io.Writer, f Format) *Writer {
	bw := &Writer{f: f, bw: bufio.NewWriterSize(w, 1<<16)}
	var p [preludeSize]byte
	copy(p[:8], f.Magic)
	binary.LittleEndian.PutUint32(p[8:], f.Version)
	binary.LittleEndian.PutUint32(p[12:], uint32(f.Sections))
	bw.raw(p[:])
	return bw
}

func (w *Writer) raw(p []byte) {
	if w.err == nil {
		_, w.err = w.bw.Write(p)
	}
	w.off += uint64(len(p))
}

var zeroPad [8]byte

// endSection records the open section in the table and pads the stream
// to the next 8-byte boundary.
func (w *Writer) endSection() {
	if w.open {
		var ent [entrySize]byte
		binary.LittleEndian.PutUint64(ent[0:], w.start)
		binary.LittleEndian.PutUint64(ent[8:], w.off-w.start)
		binary.LittleEndian.PutUint32(ent[16:], w.crc)
		w.table = append(w.table, ent[:]...)
		w.open = false
	}
	if rem := w.off % 8; rem != 0 {
		w.raw(zeroPad[:8-rem])
	}
}

// Section begins the next section; the bytes written until the next
// Section, Slice, Strings or Finish are its body.
func (w *Writer) Section() {
	w.endSection()
	w.open, w.start, w.crc = true, w.off, 0
}

// Write appends p to the current section. It never fails: the first
// error of the underlying writer is kept for Finish.
func (w *Writer) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.raw(p)
	return len(p), nil
}

// U32 appends v to the current section.
func (w *Writer) U32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

// U64 appends v to the current section.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

// Slice emits a as one section of little-endian elements. On
// little-endian hosts the slice's backing bytes go out directly;
// elsewhere a chunked byte swap produces the same bytes.
func Slice[T Elem](w *Writer, a []T) {
	w.Section()
	if len(a) == 0 {
		return
	}
	size := int(unsafe.Sizeof(a[0]))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*size)
	if hostLittleEndian {
		w.Write(raw)
		return
	}
	var buf [512]byte
	for len(raw) > 0 {
		n := copy(buf[:], raw)
		swapElems(buf[:n], size)
		w.Write(buf[:n])
		raw = raw[n:]
	}
}

// Strings emits n strings as a string column, two sections: (n+1) u32
// byte offsets into a blob, then the blob of concatenated bytes.
func (w *Writer) Strings(n int, get func(i int) string) {
	w.Section()
	off := uint64(0)
	w.U32(0)
	for i := 0; i < n; i++ {
		off += uint64(len(get(i)))
		w.U32(uint32(off))
	}
	if off > math.MaxUint32 && w.err == nil {
		w.err = fmt.Errorf("binfmt: string column of %d bytes exceeds the 4 GiB its u32 offsets address", off)
	}
	w.Section()
	for i := 0; i < n; i++ {
		s := get(i)
		w.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	}
}

// Finish writes the section table and the footer and flushes, returning
// the first error met since NewWriter. A section count other than the
// format's is such an error: the file would never load.
func (w *Writer) Finish() error {
	w.endSection()
	if n := len(w.table) / entrySize; n != w.f.Sections && w.err == nil {
		w.err = fmt.Errorf("binfmt: %d sections written, format %q has %d", n, w.f.Magic, w.f.Sections)
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], w.off)
	binary.LittleEndian.PutUint32(foot[8:], uint32(w.f.Sections))
	binary.LittleEndian.PutUint32(foot[12:], w.f.Version)
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(w.table, castagnoli))
	copy(foot[24:], w.f.Magic)
	w.raw(w.table)
	w.raw(foot[:])
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// WriteFile writes a file through write atomically (temp file + rename),
// so an interrupted write never leaves a truncated file under path.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	// Flush to stable storage before the rename so a crash cannot
	// persist the new name over unwritten data.
	if err == nil {
		err = f.Sync()
	}
	// CreateTemp makes the file 0600; match the 0644 the N-Triples
	// writers get from os.Create so service users can read the file.
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ---------------------------------------------------------------------
// Reading

// File is a validated file: the section payloads of data, by section id.
type File struct {
	f    Format
	secs [][]byte
}

// Open validates the prelude, footer, table checksum and every section
// checksum of data (one sequential pass, no decoding). The File aliases
// data, which must stay unmodified — and, if mapped, mapped — for as
// long as the File or any view taken from it is in use.
func (f Format) Open(data []byte) (*File, error) {
	if len(data) < preludeSize+footerSize {
		return nil, f.Errorf("file too small (%d bytes)", len(data))
	}
	if string(data[:8]) != f.Magic {
		return nil, f.Errorf("bad magic %q", data[:8])
	}
	foot := data[len(data)-footerSize:]
	if string(foot[24:]) != f.Magic {
		return nil, f.Errorf("bad trailing magic (file truncated?)")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != f.Version {
		return nil, f.Errorf("unsupported version %d (want %d)", v, f.Version)
	}
	if v := binary.LittleEndian.Uint32(foot[12:]); v != f.Version {
		return nil, f.Errorf("footer version %d disagrees with prelude", v)
	}
	want := uint32(f.Sections)
	if count := binary.LittleEndian.Uint32(foot[8:]); count != want || binary.LittleEndian.Uint32(data[12:]) != want {
		return nil, f.Errorf("section count %d, want %d", count, want)
	}
	tableOff := binary.LittleEndian.Uint64(foot)
	tableLen := uint64(f.Sections) * entrySize
	// The table abuts the footer, so its offset is fully determined;
	// compare against the subtraction-safe expected value rather than
	// computing tableOff+tableLen, which a huge tableOff could wrap.
	body := uint64(len(data) - footerSize)
	if body < preludeSize+tableLen || tableOff != body-tableLen {
		return nil, f.Errorf("section table at %d does not abut the footer", tableOff)
	}
	table := data[tableOff:body]
	if crc32.Checksum(table, castagnoli) != binary.LittleEndian.Uint32(foot[16:]) {
		return nil, f.Errorf("section table checksum mismatch")
	}
	secs := make([][]byte, f.Sections)
	for i := range secs {
		ent := table[i*entrySize:]
		off := binary.LittleEndian.Uint64(ent)
		length := binary.LittleEndian.Uint64(ent[8:])
		if off%8 != 0 || off < preludeSize || off+length < off || off+length > tableOff {
			return nil, f.Errorf("section %d range [%d,%d) escapes the file", i, off, off+length)
		}
		secs[i] = data[off : off+length]
		if crc32.Checksum(secs[i], castagnoli) != binary.LittleEndian.Uint32(ent[16:]) {
			return nil, f.Errorf("section %d checksum mismatch", i)
		}
	}
	return &File{f: f, secs: secs}, nil
}

// Bytes returns the payload of section sec.
func (r *File) Bytes(sec int) []byte { return r.secs[sec] }

// View returns section sec as a little-endian []T, which must hold want
// elements unless want is negative. On little-endian hosts with aligned
// data the slice aliases the file (the zero-copy mmap path); otherwise
// it is decoded into a fresh slice.
func View[T Elem](r *File, sec, want int, what string) ([]T, error) {
	b := r.secs[sec]
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(b)%size != 0 {
		return nil, r.f.Errorf("%s section length %d is not a multiple of %d", what, len(b), size)
	}
	n := len(b) / size
	if want >= 0 && n != want {
		return nil, r.f.Errorf("%s section has %d entries, want %d", what, n, want)
	}
	if n == 0 {
		return nil, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]T, n)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), len(b))
	copy(raw, b)
	if !hostLittleEndian {
		swapElems(raw, size)
	}
	return out, nil
}

// StringColumn is a validated string column: offsets into a blob.
type StringColumn struct {
	offs []uint32
	blob []byte
}

// Strings returns the string column in sections offSec and blobSec,
// which must hold n strings unless n is negative; what names its
// offsets in errors. The offsets are checked here — first 0, last the
// blob's length, never decreasing — so At cannot leave the blob.
func (r *File) Strings(offSec, blobSec, n int, what string) (StringColumn, error) {
	if n >= 0 {
		n++
	}
	offs, err := View[uint32](r, offSec, n, what)
	if err != nil {
		return StringColumn{}, err
	}
	blob := r.secs[blobSec]
	if len(offs) == 0 || offs[0] != 0 || uint64(offs[len(offs)-1]) != uint64(len(blob)) {
		return StringColumn{}, r.f.Errorf("%d %s do not span the blob of %d bytes", len(offs), what, len(blob))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i-1] > offs[i] {
			return StringColumn{}, r.f.Errorf("%s decrease at entry %d", what, i)
		}
	}
	return StringColumn{offs, blob}, nil
}

// Len returns the number of strings in the column.
func (c StringColumn) Len() int { return len(c.offs) - 1 }

// At returns string i, sharing the file's storage: safe because the
// file's bytes are immutable for as long as its views are in use. An
// empty string points nowhere, not into the file: most strings of a
// column can be empty (a term's datatype and language), and every
// non-nil pointer in a long-lived slice is one more lookup for each
// garbage collection that scans it.
func (c StringColumn) At(i int) string {
	b := c.blob[c.offs[i]:c.offs[i+1]]
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// CheckOffsets checks that off is a CSR offset array over max values:
// first 0, last max, never decreasing.
func (f Format) CheckOffsets(off []int32, max int, what string) error {
	if len(off) == 0 || off[0] != 0 || int(off[len(off)-1]) != max {
		return f.Errorf("%s offsets do not span [0,%d]", what, max)
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return f.Errorf("%s offsets decrease at entry %d", what, i)
		}
	}
	return nil
}
