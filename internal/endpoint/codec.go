package endpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"sofya/internal/rdf"
)

// codec.go is the JSON this package puts on the wire and takes off it —
// the W3C results document (json.go) and the JSONL stream frames
// (wire.go) — without reflection: one append-style encoder and one pull
// tokenizer over bytes already in memory. Both formats are defined by
// what encoding/json did with the structs that now live in
// codec_ref_test.go. The encoder emits the same bytes. The decoder reads
// anything those structs read to the same value, except that it refuses
// a few things no encoder of either format produces: a structural member
// given twice, a frame that is two kinds at once or not one line, a row
// whose width is not the head's, null inside an array.

// ---- encoding ----

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json renders a string: the
// short escapes, \u00XX for other control bytes and for <, > and &,
// U+2028 and U+2029 escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendTerm appends the results-format rendering of one RDF term:
// {"type":"uri"|"literal"|"bnode","value":...[,"xml:lang":...][,"datatype":...]}.
func appendTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		dst = append(dst, `{"type":"uri","value":`...)
		dst = appendJSONString(dst, t.Value)
	case rdf.Blank:
		dst = append(dst, `{"type":"bnode","value":`...)
		dst = appendJSONString(dst, t.Value)
	default:
		dst = append(dst, `{"type":"literal","value":`...)
		dst = appendJSONString(dst, t.Value)
		if t.Lang != "" {
			dst = append(dst, `,"xml:lang":`...)
			dst = appendJSONString(dst, t.Lang)
		}
		if t.Datatype != "" {
			dst = append(dst, `,"datatype":`...)
			dst = appendJSONString(dst, t.Datatype)
		}
	}
	return append(dst, '}')
}

// appendHeadFrame appends a stream's head frame line.
func appendHeadFrame(dst []byte, vars []string) []byte {
	dst = append(dst, `{"head":{"vars":`...)
	return append(appendVars(dst, vars), "}}\n"...)
}

func appendVars(dst []byte, vars []string) []byte {
	if vars == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, v)
	}
	return append(dst, ']')
}

// appendEndFrame appends the terminal frame line of a clean stream.
func appendEndFrame(dst []byte, truncated bool) []byte {
	dst = append(dst, `{"end":{"truncated":`...)
	dst = strconv.AppendBool(dst, truncated)
	return append(dst, "}}\n"...)
}

// appendErrorFrame appends the terminal frame line of a failed stream.
func appendErrorFrame(dst []byte, err error) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendJSONString(dst, err.Error())
	if errors.Is(err, ErrQuotaExceeded) {
		dst = append(dst, `,"quota":true`...)
	}
	return append(dst, "}\n"...)
}

// bindingCol is one member of a results-document binding object.
type bindingCol struct {
	key []byte // the encoded member name and its colon
	col int
}

// bindingCols lays out a binding object for vars the way the format's
// reference — a map keyed by variable name — comes out: one member per
// distinct name, taking the last column of that name, members in name
// order.
func bindingCols(vars []string) []bindingCol {
	cols := make([]bindingCol, 0, len(vars))
	for i, v := range vars {
		dup := false
		for j := range cols {
			if vars[cols[j].col] == v {
				cols[j].col, dup = i, true
			}
		}
		if !dup {
			cols = append(cols, bindingCol{col: i})
		}
	}
	sort.Slice(cols, func(a, b int) bool { return vars[cols[a].col] < vars[cols[b].col] })
	for i := range cols {
		cols[i].key = append(appendJSONString(nil, vars[cols[i].col]), ':')
	}
	return cols
}

// ---- decoding ----

// jsonDec is a pull tokenizer over one complete JSON text in memory. The
// caller drives it along the grammar it expects — open, member, element,
// a typed scalar — and calls skip for anything it has no use for. It
// accepts exactly RFC 8259 JSON.
type jsonDec struct {
	data    []byte
	pos     int
	scratch []byte // unescaped bytes of the last string that needed any
}

// maxSkipDepth bounds the nesting skip will follow into a member it has
// no use for; the known structures are six levels deep.
const maxSkipDepth = 1000

func (d *jsonDec) errf(format string, args ...any) error {
	return fmt.Errorf("JSON offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips white space and returns the next byte without consuming
// it, 0 at the end of the text.
func (d *jsonDec) peek() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' that starts a structure.
func (d *jsonDec) open(c byte) error {
	if d.peek() != c {
		return d.errf("expected %q", c)
	}
	d.pos++
	return nil
}

// member advances to the next member of the object being read and
// returns its name, valid until the next string is read; ok is false
// once the object is closed. first is true on the call after open.
func (d *jsonDec) member(first bool) (name []byte, ok bool, err error) {
	c := d.peek()
	switch {
	case c == '}' && d.pos < len(d.data):
		d.pos++
		return nil, false, nil
	case first:
	case c == ',' && d.pos < len(d.data):
		d.pos++
	default:
		return nil, false, d.errf("expected ',' or '}'")
	}
	if name, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.errf("expected ':'")
	}
	d.pos++
	return name, true, nil
}

// element advances to the next element of the array being read; ok is
// false once the array is closed.
func (d *jsonDec) element(first bool) (ok bool, err error) {
	c := d.peek()
	switch {
	case c == ']' && d.pos < len(d.data):
		d.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',' && d.pos < len(d.data):
		d.pos++
		return true, nil
	}
	return false, d.errf("expected ',' or ']'")
}

func (d *jsonDec) literal(word string) bool {
	if d.peek() == word[0] && bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		d.pos += len(word)
		return true
	}
	return false
}

// null consumes a null if one is next. Callers read a null member as an
// absent one, as encoding/json does — where it would rather unset an
// earlier member of that name, the repeat is refused or the list reset.
func (d *jsonDec) null() bool { return d.literal("null") }

func (d *jsonDec) boolean() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errf("expected a boolean")
}

// number consumes a number and returns its text.
func (d *jsonDec) number() ([]byte, error) {
	d.peek()
	data, i := d.data, d.pos
	digits := func() bool {
		start := i
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if !digits() {
		return nil, d.errf("expected a number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			return nil, d.errf("malformed number")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			return nil, d.errf("malformed number")
		}
	}
	text := data[d.pos:i]
	d.pos = i
	return text, nil
}

// str consumes a string and returns its value: a slice of the input
// when it holds only unescaped ASCII, the tokenizer's scratch buffer
// otherwise. Either way it is valid until the next string is read.
func (d *jsonDec) str() ([]byte, error) {
	if d.peek() != '"' || d.pos >= len(d.data) {
		return nil, d.errf("expected a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		if c := d.data[i]; !plainByte[c] {
			if c == '"' {
				d.pos = i + 1
				return d.data[start:i], nil
			}
			return d.strSlow(start, i)
		}
	}
	d.pos = len(d.data)
	return nil, d.errf("unterminated string")
}

// plainByte marks the bytes that stand for themselves inside a string:
// ASCII but for the control characters, the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// strSlow finishes str from the first byte that is not plain ASCII:
// escapes are resolved — an unpaired surrogate escape reads as U+FFFD —
// and invalid UTF-8 is replaced by U+FFFD.
func (d *jsonDec) strSlow(start, i int) ([]byte, error) {
	data := d.data
	out := append(d.scratch[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos, d.scratch = i+1, out
			return out, nil
		case c == '\\':
			d.pos = i
			if i+1 >= len(data) {
				return nil, d.errf("unterminated string")
			}
			i += 2
			switch e := data[i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(data[i:])
				if !ok {
					return nil, d.errf("malformed \\u escape")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					pair := unicode.ReplacementChar
					if i+6 <= len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if lo, ok := hex4(data[i+2:]); ok {
							pair = utf16.DecodeRune(r, lo)
						}
					}
					if pair != unicode.ReplacementChar {
						i += 6
					}
					r = pair
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errf("unknown escape \\%c", e)
			}
		case c < 0x20:
			d.pos = i
			return nil, d.errf("control character in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.pos = len(data)
	return nil, d.errf("unterminated string")
}

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skip consumes one value of any type, checking its syntax.
func (d *jsonDec) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.errf("nested too deep")
	}
	var err error
	switch c := d.peek(); c {
	case '"':
		_, err = d.str()
	case '{':
		d.pos++
		for first := true; ; first = false {
			_, ok, err := d.member(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '[':
		d.pos++
		for first := true; ; first = false {
			ok, err := d.element(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case 't', 'f':
		_, err = d.boolean()
	case 'n':
		if !d.null() {
			err = d.errf("expected a value")
		}
	default:
		_, err = d.number()
	}
	return err
}

// end checks that only white space is left.
func (d *jsonDec) end() error {
	d.peek()
	if d.pos < len(d.data) {
		return d.errf("data after the top-level value")
	}
	return nil
}

// is reports whether a member name read from the input names the field:
// exactly, or under the case folding encoding/json matches names with.
func is(name []byte, field string) bool {
	return string(name) == field || (len(name) >= len(field) && strings.EqualFold(string(name), field))
}

// internTable holds one copy of each string the decoder has read off
// the wire, for every Client and both formats: a result repeats the same
// few terms, so a decode costs a lookup, not a copy. It keeps at most
// maxInterned strings, none longer than maxInternLen (a text, not a
// name), so it holds at most 32 MiB. It is cut by hash into shards, each
// a locked map cleared when full: a Go map past 1,024 entries grows by
// two fresh 1,024-slot tables at once (≈ 66 KiB), which one decode
// would pay, while a shard's largest growth is ≈ 17 KiB.
var internTable [internShards]struct {
	sync.Mutex
	m map[string]string
}

var internSeed = maphash.MakeSeed()

const maxInterned, internShards, maxInternLen = 1 << 16, 256, 512

// intern returns a string equal to b that shares no memory with it.
func intern(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	t := &internTable[maphash.Bytes(internSeed, b)%internShards]
	t.Lock()
	s, ok := t.m[string(b)]
	if !ok {
		if len(t.m) >= maxInterned/internShards {
			clear(t.m)
		} else if t.m == nil {
			t.m = make(map[string]string)
		}
		s = string(b)
		t.m[s] = s
	}
	t.Unlock()
	return s
}

// rawTerm is a term object as read, before its type is judged.
type rawTerm struct {
	typ                   string // "uri" | "bnode" | "literal", or what was there instead
	value, lang, datatype string
}

// rawTerm reads one term object. Its members are plain strings, so a
// repeated one simply overwrites; its value, language and datatype are
// interned.
func (d *jsonDec) rawTerm() (rawTerm, error) {
	var t rawTerm
	if err := d.open('{'); err != nil {
		return t, err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil || !ok {
			return t, err
		}
		var field *string
		switch {
		case is(name, "type"):
			field = &t.typ
		case is(name, "value"):
			field = &t.value
		case is(name, "xml:lang"):
			field = &t.lang
		case is(name, "datatype"):
			field = &t.datatype
		default:
			if err := d.skip(0); err != nil {
				return t, err
			}
			continue
		}
		if d.null() {
			continue
		}
		s, err := d.str()
		if err != nil {
			return t, err
		}
		// no allocation for the three types every term has one of
		switch {
		case field != &t.typ:
			*field = intern(s)
		case string(s) == "uri":
			t.typ = "uri"
		case string(s) == "bnode":
			t.typ = "bnode"
		case string(s) == "literal" || string(s) == "typed-literal":
			t.typ = "literal"
		default:
			t.typ = string(s)
		}
	}
}

func (t rawTerm) term() (rdf.Term, error) {
	switch t.typ {
	case "uri":
		return rdf.NewIRI(t.value), nil
	case "bnode":
		return rdf.NewBlank(t.value), nil
	case "literal":
		switch {
		case t.lang != "":
			return rdf.NewLangLiteral(t.value, t.lang), nil
		case t.datatype != "" && t.datatype != rdf.XSDString:
			return rdf.NewTypedLiteral(t.value, t.datatype), nil
		default:
			return rdf.NewLiteral(t.value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("endpoint: unknown term type %q", t.typ)
	}
}

func (d *jsonDec) term() (rdf.Term, error) {
	raw, err := d.rawTerm()
	if err != nil {
		return rdf.Term{}, err
	}
	return raw.term()
}

// errRepeated refuses a structural member given twice: encoding/json
// would merge the two, and no encoder writes that.
func (d *jsonDec) errRepeated(field string) error {
	return d.errf("member %q repeated", field)
}

// stringList reads an array of strings, interned.
func (d *jsonDec) stringList() ([]string, error) {
	if err := d.open('['); err != nil {
		return nil, err
	}
	out := []string{}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil || !ok {
			return out, err
		}
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, intern(s))
	}
}

// frameKind tells the frames of a stream apart.
type frameKind uint8

const (
	frameRows frameKind = iota // also a frame with nothing in it
	frameHead
	frameEnd
	frameError
)

// frame is one decoded stream frame (see wire.go for the format).
type frame struct {
	kind frameKind
	// head: the projected variables
	vars []string
	// rows: n rows, row-major in terms
	terms []rdf.Term
	n     int
	// end
	truncated bool
	// error: ErrQuotaExceeded, or the remote error's text
	err error
}

// frame decodes one frame line into f. width is the number of variables
// the stream's head declared, -1 while the head is still to come: a rows
// frame must fit it. A rows frame's terms are decoded into into's room
// — the reused buffer of a stream whose rows are borrowed — or, when
// into is nil, into a new slice the rows may keep.
func (d *jsonDec) frame(line []byte, f *frame, width int, into []rdf.Term) error {
	const (
		mHead = 1 << iota
		mRows
		mEnd
		mError
		mQuota
	)
	d.data, d.pos = line, 0
	*f = frame{}
	var (
		seen  uint // members given; has: with a value
		has   uint
		msg   string
		quota bool
	)
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var m uint
		switch {
		case is(name, "head"):
			m = mHead
		case is(name, "rows"):
			m = mRows
		case is(name, "end"):
			m = mEnd
		case is(name, "error"):
			m = mError
		case is(name, "quota"):
			m = mQuota
		default:
			if err := d.skip(0); err != nil {
				return err
			}
			continue
		}
		if seen&m != 0 {
			return d.errf("frame member repeated")
		}
		if seen |= m; d.null() {
			continue // absent, but for being given
		}
		has |= m
		switch m {
		case mHead:
			err = d.frameHead(f)
		case mRows:
			if width < 0 {
				return d.errf("rows before the head frame")
			}
			f.terms, f.n, err = d.rows(width, into)
		case mEnd:
			err = d.frameEnd(f)
		case mError:
			var s []byte
			if s, err = d.str(); err == nil {
				msg = string(s)
			}
		case mQuota:
			quota, err = d.boolean()
		}
		if err != nil {
			return err
		}
	}
	if err := d.end(); err != nil {
		return err
	}
	kinds := 0
	if has&mRows != 0 {
		kinds++
	}
	if has&mHead != 0 {
		f.kind = frameHead
		kinds++
	}
	if has&mEnd != 0 {
		f.kind = frameEnd
		kinds++
	}
	if msg != "" {
		f.kind = frameError
		kinds++
		if f.err = ErrQuotaExceeded; !quota {
			f.err = fmt.Errorf("endpoint: remote stream: %s", msg)
		}
	}
	if kinds > 1 {
		return d.errf("frame is of more than one kind")
	}
	return nil
}

func (d *jsonDec) frameHead(f *frame) error {
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		// Given twice, the list replaces the one before; null is no list.
		if !is(name, "vars") {
			err = d.skip(0)
		} else if f.vars = nil; !d.null() {
			f.vars, err = d.stringList()
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonDec) frameEnd(f *frame) error {
	if err := d.open('{'); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil || !ok {
			return err
		}
		if d.null() {
			continue // no member at all, as a boolean goes
		}
		if is(name, "truncated") {
			f.truncated, err = d.boolean()
		} else {
			err = d.skip(0)
		}
		if err != nil {
			return err
		}
	}
}

// rows reads an array of rows of width terms each into one backing
// slice, row-major: into[:0] when into is not nil, and otherwise a new
// one, made once for the rows the array seems to hold: the encoder
// writes "],[" between two, so one more than are left in the frame at
// most. That is believed up to a full frame and to the terms the bytes
// could hold, 8 at the least each; past it the slice grows.
func (d *jsonDec) rows(width int, into []rdf.Term) (all []rdf.Term, n int, err error) {
	if err := d.open('['); err != nil {
		return nil, 0, err
	}
	rest := d.data[d.pos:]
	buf := into[:0]
	if into == nil {
		buf = make([]rdf.Term, 0, min(width*min(WireBatch, 1+bytes.Count(rest, []byte("],["))), len(rest)/8))
	}
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return buf, n, nil
		}
		if err := d.open('['); err != nil {
			return nil, 0, err
		}
		w := 0
		for first := true; ; first = false {
			ok, err := d.element(first)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				break
			}
			e, err := d.term()
			if err != nil {
				return nil, 0, err
			}
			buf = append(buf, e)
			w++
		}
		if w != width {
			return nil, 0, d.errf("row of %d in a stream of %d to the row", w, width)
		}
		n++
	}
}
