// Package binfmttest is the test support of internal/binfmt: the
// container suite every format over it runs against its own encoded
// fixture, and the helpers a decoder fuzz target needs to get past the
// checksums. It spells the container layout out a second time on
// purpose — the suite pins the bytes, not the package's constants.
package binfmttest

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"sofya/internal/binfmt"
)

const (
	preludeSize = 16 // magic | version u32 | count u32
	entrySize   = 24 // off u64 | len u64 | crc u32 | reserved u32
	footerSize  = 32 // tableOff u64 | count u32 | version u32 | tableCRC u32 | reserved u32 | magic
)

var (
	le         = binary.LittleEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// table returns the section table the footer of data points at, and its
// offset; ok is false when there is no room for one there.
func table(data []byte) (tab []byte, tableOff uint64, ok bool) {
	if len(data) < preludeSize+footerSize {
		return nil, 0, false
	}
	body := uint64(len(data) - footerSize)
	tableOff = le.Uint64(data[body:])
	if tableOff > body {
		return nil, 0, false
	}
	return data[tableOff:body], tableOff, true
}

// Restamp recomputes in place the checksum of every section the table
// of data describes, then the table's own, wherever the ranges involved
// lie inside data. After a mutation it makes the file checksum-valid
// again, so that decoding reaches the structural validators instead of
// stopping at the first CRC.
func Restamp(data []byte) {
	tab, tableOff, ok := table(data)
	if !ok {
		return
	}
	for e := 0; e+entrySize <= len(tab); e += entrySize {
		off, n := le.Uint64(tab[e:]), le.Uint64(tab[e+8:])
		if off <= tableOff && n <= tableOff-off {
			le.PutUint32(tab[e+16:], crc32.Checksum(data[off:off+n], castagnoli))
		}
	}
	le.PutUint32(data[len(data)-footerSize+16:], crc32.Checksum(tab, castagnoli))
}

// Allocated reports the bytes fn allocates, plus whatever the runtime
// allocates meanwhile on other goroutines: what a fuzz target bounds a
// decoder's allocations with.
func Allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Cuts returns the offsets at which the sections, the table and the
// footer of a valid file begin: the truncation points worth seeding a
// fuzz corpus with.
func Cuts(valid []byte) []int {
	tab, tableOff, _ := table(valid)
	var cuts []int
	for e := 0; e+entrySize <= len(tab); e += entrySize {
		cuts = append(cuts, int(le.Uint64(tab[e:])))
	}
	return append(cuts, int(tableOff), len(valid)-footerSize)
}

// Container runs the container suite against valid, an encoded file of
// format f, through open, the format's decoder: whatever is wrong with
// the container — a flipped byte, a missing tail, a field that
// disagrees with its twin at the other end, a table that points outside
// the file — open must fail with an error wrapping f.Err, never panic
// and never succeed.
func Container(t *testing.T, f binfmt.Format, valid []byte, open func([]byte) error) {
	t.Helper()
	if err := open(valid); err != nil {
		t.Fatalf("valid file does not open: %v", err)
	}
	mustFail := func(what string, data []byte) {
		t.Helper()
		if err := open(data); !errors.Is(err, f.Err) {
			t.Errorf("%s: err = %v, want one wrapping %v", what, err, f.Err)
		}
	}
	mutate := func(fn func(data []byte)) []byte {
		data := append([]byte(nil), valid...)
		fn(data)
		return data
	}
	tab, tableOff, _ := table(valid)
	footOff := len(valid) - footerSize
	count := len(tab) / entrySize
	if count != f.Sections {
		t.Fatalf("valid file has %d table entries, format declares %d sections", count, f.Sections)
	}

	// Every byte flipped, one at a time. No checksum covers the padding
	// between sections and the footer's reserved word, so a flip there
	// may open; anywhere else it must not.
	slack := make([]bool, len(valid))
	end := preludeSize
	for e := 0; e < count; e++ {
		off, n := int(le.Uint64(tab[e*entrySize:])), int(le.Uint64(tab[e*entrySize+8:]))
		for i := end; i < off; i++ {
			slack[i] = true
		}
		end = off + n
	}
	for i := end; i < int(tableOff); i++ {
		slack[i] = true
	}
	for i := footOff + 20; i < footOff+24; i++ {
		slack[i] = true
	}
	work := make([]byte, len(valid))
	for i := range valid {
		copy(work, valid)
		work[i] ^= 0x5a
		if err := open(work); err == nil && !slack[i] {
			t.Fatalf("flip at %d (not padding, not reserved) still opens", i)
		} else if err != nil && !errors.Is(err, f.Err) {
			t.Fatalf("flip at %d: error %v does not wrap %v", i, err, f.Err)
		}
	}

	// Truncated at every structural boundary and at sizes around the
	// fixed-size ends; and extended, which moves the footer.
	for _, n := range append(Cuts(valid), 0, 1, 7, 8, preludeSize, preludeSize+footerSize-1, preludeSize+footerSize, len(valid)/2, len(valid)-1) {
		mustFail("truncation", valid[:n])
	}
	mustFail("one byte appended", append(append([]byte(nil), valid...), 0))

	// Magic, version and section count, wrong at one end and at both.
	for _, c := range []struct {
		what     string
		pre, ftr int // field offsets in the prelude and in the footer
	}{
		{"magic", 0, 24},
		{"version", 8, 12},
		{"section count", 12, 8},
	} {
		mustFail(c.what+" wrong in the prelude", mutate(func(d []byte) { d[c.pre]++ }))
		mustFail(c.what+" wrong in the footer", mutate(func(d []byte) { d[footOff+c.ftr]++ }))
		mustFail(c.what+" wrong at both ends", mutate(func(d []byte) { d[c.pre]++; d[footOff+c.ftr]++ }))
	}

	// A table offset so large that tableOff+tableLen wraps back into
	// range must fail cleanly, not slice out of bounds.
	for _, off := range []uint64{1 << 63, ^uint64(0)} {
		mustFail("huge table offset", mutate(func(d []byte) { le.PutUint64(d[footOff:], off) }))
	}
	// The wrap attack proper: a file shorter than prelude+table+footer
	// whose tableOff underflows, so that tableOff+tableLen wraps to
	// exactly where the table is expected to end.
	short := make([]byte, preludeSize+footerSize)
	copy(short, f.Magic)
	le.PutUint32(short[8:], f.Version)
	le.PutUint32(short[12:], uint32(f.Sections))
	foot := short[preludeSize:]
	le.PutUint64(foot, uint64(preludeSize)-uint64(f.Sections)*entrySize)
	le.PutUint32(foot[8:], uint32(f.Sections))
	le.PutUint32(foot[12:], f.Version)
	copy(foot[24:], f.Magic)
	mustFail("wrapping table offset in a short file", short)

	// Table entries that point where no section may lie, under a valid
	// table checksum.
	last := int(tableOff) + (count-1)*entrySize
	for _, c := range []struct {
		what     string
		off, len uint64
	}{
		{"misaligned section", le.Uint64(valid[last:]) + 4, 0},
		{"section inside the prelude", 8, 0},
		{"section running into the table", tableOff - 8, 16},
		{"section starting past the table", tableOff + 8, 0},
		{"section range wrapping", tableOff - 8, ^uint64(0)},
	} {
		mustFail(c.what, mutate(func(d []byte) {
			le.PutUint64(d[last:], c.off)
			le.PutUint64(d[last+8:], c.len)
			Restamp(d)
		}))
	}
}
