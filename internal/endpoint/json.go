package endpoint

import (
	"fmt"
	"slices"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// The whole-result wire format is the W3C "SPARQL 1.1 Query Results JSON
// Format":
//
//	{"head":{"vars":["x"]},
//	 "results":{"bindings":[{"x":{"type":"uri","value":"http://..."}}]}}
//
// ASK results carry {"head":{},"boolean":true}. A top-level
// "truncated":true is a nonstandard extension flag used by this
// repository's endpoints to signal a row cap, mirroring the
// X-SPARQL-MaxRows headers some public endpoints emit.
//
// Documents from other endpoints are read as leniently as the format
// allows: members in any order, unknown members ("link", "distinct")
// skipped, "typed-literal" read as "literal".

// MarshalSelect encodes a SELECT result in SPARQL-results JSON. The
// error is always nil.
func MarshalSelect(res *sparql.Result) ([]byte, error) { return appendSelect(nil, res), nil }

// appendSelect appends MarshalSelect's document to out, which it first
// grows by an estimate of the document's length.
func appendSelect(out []byte, res *sparql.Result) []byte {
	out = slices.Grow(out, 64+96*len(res.Vars)*len(res.Rows))
	out = append(out, `{"head":{`...)
	if len(res.Vars) > 0 {
		out = append(out, `"vars":`...)
		out = appendVars(out, res.Vars)
	}
	out = append(out, `},"results":{"bindings":[`...)
	cols := bindingCols(res.Vars)
	for i, row := range res.Rows {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '{')
		for j, c := range cols {
			if j > 0 {
				out = append(out, ',')
			}
			out = append(out, c.key...)
			out = appendTerm(out, row[c.col])
		}
		out = append(out, '}')
	}
	out = append(out, `]}`...)
	if res.Truncated {
		out = append(out, `,"truncated":true`...)
	}
	return append(out, '}')
}

// MarshalAsk encodes an ASK result in SPARQL-results JSON. The error is
// always nil.
func MarshalAsk(ok bool) ([]byte, error) {
	if ok {
		return []byte(`{"head":{},"boolean":true}`), nil
	}
	return []byte(`{"head":{},"boolean":false}`), nil
}

// UnmarshalResults decodes a SPARQL-results JSON document into a Result.
// ASK answers come back with Ask set and no rows.
func UnmarshalResults(data []byte) (*sparql.Result, error) {
	d := jsonDec{data: data}
	res, err := d.resultsDoc()
	if err != nil {
		return nil, fmt.Errorf("endpoint: bad results JSON: %w", err)
	}
	return res, nil
}

// resultsDoc reads one results document.
func (d *jsonDec) resultsDoc() (*sparql.Result, error) {
	const (
		mHead = 1 << iota
		mResults
	)
	res := &sparql.Result{}
	var (
		seen      uint
		boolean   bool
		isAsk     bool
		resultsAt = -1 // where a "results" that came before "head" starts
	)
	if err := d.open('{'); err != nil {
		return nil, err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		// A null member is an absent one — but for counting as given,
		// where a second one is refused.
		switch {
		case is(name, "head"):
			if seen&mHead != 0 {
				return nil, d.errRepeated("head")
			}
			if seen |= mHead; !d.null() {
				res.Vars, err = d.docHead()
			}
		case is(name, "results"):
			if seen&mResults != 0 {
				return nil, d.errRepeated("results")
			}
			if seen |= mResults; d.null() {
				continue
			}
			if seen&mHead == 0 {
				// The columns are not known yet: come back for the rows.
				d.peek()
				resultsAt = d.pos
				err = d.skip(0)
			} else {
				res.Rows, err = d.docResults(res.Vars)
			}
		case is(name, "boolean"):
			if isAsk = !d.null(); isAsk {
				boolean, err = d.boolean()
			}
		case d.null():
		case is(name, "truncated"):
			res.Truncated, err = d.boolean()
		default:
			err = d.skip(0)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	if resultsAt >= 0 {
		d.pos = resultsAt
		var err error
		if res.Rows, err = d.docResults(res.Vars); err != nil {
			return nil, err
		}
	}
	if isAsk {
		res.Ask, res.Rows = boolean, nil
	}
	return res, nil
}

// docHead reads the document's head object and returns its vars.
func (d *jsonDec) docHead() (vars []string, err error) {
	if err := d.open('{'); err != nil {
		return nil, err
	}
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil || !ok {
			return vars, err
		}
		if is(name, "vars") {
			// given twice, the later list replaces the earlier; null is none
			if vars = nil; !d.null() {
				vars, err = d.stringList()
			}
		} else {
			err = d.skip(0)
		}
		if err != nil {
			return nil, err
		}
	}
}

// docResults reads the document's results object and returns the rows
// of its bindings, in the column order of vars.
func (d *jsonDec) docResults(vars []string) (rows [][]rdf.Term, err error) {
	if err := d.open('{'); err != nil {
		return nil, err
	}
	seen := false
	for first := true; ; first = false {
		name, ok, err := d.member(first)
		if err != nil || !ok {
			return rows, err
		}
		if is(name, "bindings") {
			if seen {
				return nil, d.errRepeated("bindings")
			}
			if seen = true; !d.null() {
				rows, err = d.bindings(vars)
			}
		} else {
			err = d.skip(0)
		}
		if err != nil {
			return nil, err
		}
	}
}

// bindings reads the array of binding objects into rows cut from one
// backing slice. Every binding must bind every variable of vars; members
// that name no variable are read as terms and dropped.
func (d *jsonDec) bindings(vars []string) ([][]rdf.Term, error) {
	if err := d.open('['); err != nil {
		return nil, err
	}
	w := len(vars)
	var slab []rdf.Term
	bound := make([]int, w) // bound[c] == n: column c is bound in row n-1
	n := 0
	for first := true; ; first = false {
		ok, err := d.element(first)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := d.open('{'); err != nil {
			return nil, err
		}
		n++
		base, missing := len(slab), w
		for c := 0; c < w; c++ {
			slab = append(slab, rdf.Term{})
		}
		for first := true; ; first = false {
			name, ok, err := d.member(first)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			col := -1
			for c, v := range vars {
				if string(name) == v {
					col = c
					break
				}
			}
			if col < 0 {
				if !d.null() {
					if _, err := d.rawTerm(); err != nil {
						return nil, err
					}
				}
				continue
			}
			t, err := d.term()
			if err != nil {
				return nil, err
			}
			// A variable repeated in vars takes the member in each of
			// its columns.
			for c := col; c < w; c++ {
				if vars[c] == vars[col] {
					slab[base+c] = t
					if bound[c] != n {
						bound[c] = n
						missing--
					}
				}
			}
		}
		if missing > 0 {
			for c, v := range vars {
				if bound[c] != n {
					return nil, fmt.Errorf("endpoint: binding missing variable %q", v)
				}
			}
		}
	}
	if n == 0 {
		return nil, nil
	}
	rows := make([][]rdf.Term, n)
	for i := range rows {
		rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return rows, nil
}
