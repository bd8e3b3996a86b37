package sparql

import (
	"container/list"
	"strconv"
	"strings"

	"sofya/internal/rdf"
)

// skeleton.go lets the engine bind a received text without parsing it.
// Whoever sends a probe sends Template.Text: the canonical text of one of
// a few shapes, which differ only in their constants. A skeleton is the
// canonical text of a cached shape split at its lifted sites — every
// pattern constant, the LIMIT and the OFFSET — by the mark-and-split
// templates use (splitSites). A text that is, byte for byte, a skeleton's
// segments with one canonically written argument in each gap is exactly
// the Query.String() of the query Parse would build from it, so the
// arguments read off the gaps are that query's liftArgs, and the text
// itself is its RAND() fingerprint's input.
//
// Skeletons are learned when a parse meets a shape, or a LIMIT/OFFSET
// spelling of it, that its plan-cache entry lacks, and are evicted with
// the entry. The engine indexes them by skeletonKey.

// skeleton is one LIMIT/OFFSET spelling of a cached shape's canonical
// text: segs and gaps as splitSites returns them, the gaps' arguments in
// lifted order.
type skeleton struct {
	segs []string
	gaps []skelGap
	// nargs is the lifted plan's argument count: the pattern constants,
	// then LIMIT and OFFSET, each -1 and 0 when the spelling has none.
	nargs int
	key   string
	el    *list.Element // the plan-cache entry the skeleton belongs to
}

// skelGap is one gap of a skeleton: a textGap, whether a literal may
// stand in it (a triple pattern's object) or only an IRI, and whether it
// is the OFFSET, which a canonical text writes only when it is not 0.
type skelGap struct {
	textGap
	literal bool
	offset  bool
}

// spelling numbers the four ways a canonical text spells LIMIT and
// OFFSET: bit 0 a LIMIT, bit 1 an OFFSET.
func spelling(q *Query) int {
	s := 0
	if q.Limit >= 0 {
		s |= 1
	}
	if q.Offset > 0 {
		s |= 2
	}
	return s
}

// skeletonKey is the index key of a text: its bytes up to the first '<'
// or '"'. A text that matches a skeleton has the key of the skeleton's
// first segment (deriveSkeleton refuses a skeleton it could not find).
// ok is false for a text with neither byte, which no skeleton matches.
func skeletonKey(text string) (key string, ok bool) {
	at := strings.IndexAny(text, `<"`)
	if at < 0 {
		return "", false
	}
	return text[:at], true
}

// deriveSkeleton derives the skeleton of q's shape, in q's LIMIT/OFFSET
// spelling, or returns nil when that spelling cannot be bound from text:
// a canonical text holding NUL, a shape whose canonical text re-parses
// to another shape, a key no text of the shape would carry, or a
// skeleton that does not read the canonical text back as its parse's
// arguments. shape is q's shapeKey.
func deriveSkeleton(q *Query, shape string) *skeleton {
	canon := q.String()
	if strings.IndexByte(canon, 0) >= 0 {
		return nil
	}
	// A text that matches reads as the parse of the canonical text
	// would, so that parse is what the skeleton is derived from.
	cq, err := Parse(canon)
	if err != nil || shapeKey(cq) != shape {
		return nil
	}
	want := liftArgs(cq, nil)
	limit, offset := -1, -1
	if cq.Limit >= 0 {
		limit = len(want) - 2
	}
	if cq.Offset > 0 {
		offset = len(want) - 1
	}
	var obj []bool // per pattern constant, in lifted order
	site := func(pt PatternTerm, o bool) int {
		if pt.IsVar {
			return -1
		}
		obj = append(obj, o)
		return len(obj) - 1
	}
	segs, gaps, err := splitSites(cq, site, limit, offset)
	if err != nil {
		return nil
	}
	s := &skeleton{segs: segs, gaps: make([]skelGap, len(gaps)), nargs: len(want)}
	for i, g := range gaps {
		s.gaps[i] = skelGap{textGap: g, literal: !g.isInt && obj[g.param], offset: g.param == offset}
	}
	key, ok := skeletonKey(segs[0])
	switch {
	case ok:
	case len(gaps) > 0 && !gaps[0].isInt:
		// the first gap's term opens with '<' or '"'
		key = segs[0]
	default:
		return nil
	}
	s.key = key
	got := make([]Arg, s.nargs)
	if !s.match(canon, got) {
		return nil
	}
	for i := range want {
		if got[i] != want[i] {
			return nil
		}
	}
	return s
}

// match reads text as an instance of the skeleton into args (nargs
// long) and reports whether it is one: every segment byte for byte, and
// in each gap one argument exactly as the canonical text writes it.
func (s *skeleton) match(text string, args []Arg) bool {
	if !strings.HasPrefix(text, s.segs[0]) {
		return false
	}
	args[s.nargs-2], args[s.nargs-1] = IntArg(-1), IntArg(0)
	pos := len(s.segs[0])
	for i, g := range s.gaps {
		a, end, ok := readGap(text, pos, g)
		if !ok {
			return false
		}
		args[g.param] = a
		seg := s.segs[i+1]
		if !strings.HasPrefix(text[end:], seg) {
			return false
		}
		pos = end + len(seg)
	}
	return pos == len(text)
}

// readGap reads the argument at text[pos:] with the lexer Parse reads
// it with, as the parser takes it — an IRI; in an object position also a
// string with an optional @lang or ^^<datatype>; for an integer gap the
// digits of a LIMIT (≥ 0) or an OFFSET (> 0) — and returns it with the
// position after it. ok is false unless the argument renders back to
// exactly the bytes it was read from.
func readGap(text string, pos int, g skelGap) (a Arg, end int, ok bool) {
	l := lexer{in: text, pos: pos}
	if g.isInt {
		// The lexer's number is a digit run; a '.' after it is the next
		// segment's to match. Canonical digits have no leading zero.
		digits := l.takeWhile(isDigit)
		n, err := strconv.Atoi(digits)
		if err != nil || (len(digits) > 1 && digits[0] == '0') || (n == 0 && g.offset) {
			return Arg{}, 0, false
		}
		return IntArg(n), l.pos, true
	}
	if pos == len(text) || (text[pos] != '<' && (text[pos] != '"' || !g.literal)) {
		return Arg{}, 0, false
	}
	t, err := l.next()
	if err != nil {
		return Arg{}, 0, false
	}
	var term rdf.Term
	switch {
	case t.kind == tokIRI:
		term = rdf.NewIRI(t.text)
	case t.kind == tokString:
		term = rdf.NewLiteral(t.text)
		switch {
		case strings.HasPrefix(text[l.pos:], "@"):
			l.pos++
			if t, err = l.next(); err != nil || t.kind != tokIdent {
				return Arg{}, 0, false
			}
			term.Lang = t.text
		case strings.HasPrefix(text[l.pos:], "^^"):
			l.pos += 2
			if t, err = l.next(); err != nil || t.kind != tokIRI {
				return Arg{}, 0, false
			}
			term.Datatype = t.text
		}
	default:
		return Arg{}, 0, false
	}
	var buf [256]byte // a longer rendering spills to the heap, compared alike
	if string(term.Append(buf[:0])) != text[pos:l.pos] {
		return Arg{}, 0, false
	}
	return TermArg(term), l.pos, true
}
