package endpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// codec_ref_test.go is the reference the wire codec (codec.go) is
// tested against: the structs both formats were first defined by, read
// and written by encoding/json exactly as the package did before it had
// a codec of its own. It is the oracle of the differential and fuzz
// tests in codec_test.go, and the stand-in for an older build in the
// interop tests.

type jsonResults struct {
	Head      jsonHead     `json:"head"`
	Results   *jsonResRows `json:"results,omitempty"`
	Boolean   *bool        `json:"boolean,omitempty"`
	Truncated bool         `json:"truncated,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonResRows struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"` // uri | literal | bnode
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

func termFromJSON(j jsonTerm) (rdf.Term, error) {
	switch j.Type {
	case "uri":
		return rdf.NewIRI(j.Value), nil
	case "bnode":
		return rdf.NewBlank(j.Value), nil
	case "literal", "typed-literal":
		switch {
		case j.Lang != "":
			return rdf.NewLangLiteral(j.Value, j.Lang), nil
		case j.Datatype != "" && j.Datatype != rdf.XSDString:
			return rdf.NewTypedLiteral(j.Value, j.Datatype), nil
		default:
			return rdf.NewLiteral(j.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("endpoint: unknown term type %q", j.Type)
	}
}

func refMarshalSelect(res *sparql.Result) ([]byte, error) {
	out := jsonResults{
		Head:      jsonHead{Vars: res.Vars},
		Results:   &jsonResRows{Bindings: make([]map[string]jsonTerm, 0, len(res.Rows))},
		Truncated: res.Truncated,
	}
	for _, row := range res.Rows {
		b := make(map[string]jsonTerm, len(res.Vars))
		for i, v := range res.Vars {
			b[v] = termToJSON(row[i])
		}
		out.Results.Bindings = append(out.Results.Bindings, b)
	}
	return json.Marshal(out)
}

func refMarshalAsk(ok bool) ([]byte, error) {
	return json.Marshal(jsonResults{Boolean: &ok})
}

func refUnmarshalResults(data []byte) (*sparql.Result, error) {
	var in jsonResults
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("endpoint: bad results JSON: %w", err)
	}
	res := &sparql.Result{Vars: in.Head.Vars, Truncated: in.Truncated}
	if in.Boolean != nil {
		res.Ask, res.Truncated = *in.Boolean, false // an ASK answer has no rows to cut
		return res, nil
	}
	if in.Results == nil {
		return res, nil
	}
	for _, b := range in.Results.Bindings {
		row := make([]rdf.Term, len(res.Vars))
		for i, v := range res.Vars {
			jt, ok := b[v]
			if !ok {
				return nil, fmt.Errorf("endpoint: binding missing variable %q", v)
			}
			t, err := termFromJSON(jt)
			if err != nil {
				return nil, err
			}
			row[i] = t
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type wireHead struct {
	Vars []string `json:"vars"`
}

type wireEnd struct {
	Truncated bool `json:"truncated"`
}

type wireFrame struct {
	Head  *wireHead    `json:"head,omitempty"`
	Rows  [][]jsonTerm `json:"rows,omitempty"`
	End   *wireEnd     `json:"end,omitempty"`
	Error string       `json:"error,omitempty"`
	Quota bool         `json:"quota,omitempty"`
}

// stream is a whole row stream in memory — what a client is left with
// once it has drained one — for comparing codecs.
type stream struct {
	vars      []string
	rows      [][]rdf.Term
	truncated bool
	err       error // the terminal error frame's, nil after an end frame
}

// refEncodeStream renders s as the frames writeStream used to emit: a
// head, rows in frames of WireBatch, the terminal frame.
func refEncodeStream(s *stream) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(&wireFrame{Head: &wireHead{Vars: s.vars}}); err != nil {
		return nil, err
	}
	for at := 0; at < len(s.rows); at += WireBatch {
		var f wireFrame
		for i := at; i < len(s.rows) && i < at+WireBatch; i++ {
			jr := make([]jsonTerm, len(s.rows[i]))
			for j, t := range s.rows[i] {
				jr[j] = termToJSON(t)
			}
			f.Rows = append(f.Rows, jr)
		}
		if err := enc.Encode(&f); err != nil {
			return nil, err
		}
	}
	last := wireFrame{End: &wireEnd{Truncated: s.truncated}}
	if s.err != nil {
		last = wireFrame{Error: s.err.Error(), Quota: errors.Is(s.err, ErrQuotaExceeded)}
	}
	if err := enc.Encode(&last); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// refDecodeStream reads a stream the way wireRows used to: one
// json.Decoder over the body, one wireFrame per Decode, the first of
// them the head, rows until a frame with an error text or an end.
func refDecodeStream(data []byte) (*stream, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var f wireFrame
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("endpoint: reading stream head: %w", err)
	}
	if f.Error != "" {
		return nil, refStreamError(&f)
	}
	if f.Head == nil {
		return nil, errors.New("endpoint: stream did not start with a head frame")
	}
	s := &stream{vars: f.Head.Vars}
	for {
		var f wireFrame
		if err := dec.Decode(&f); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("endpoint: stream cut mid-flight: %w", err)
		}
		switch {
		case f.Error != "":
			s.err = refStreamError(&f)
			return s, nil
		case f.End != nil:
			s.truncated = f.End.Truncated
			return s, nil
		}
		for _, jr := range f.Rows {
			row := make([]rdf.Term, len(jr))
			for j, jt := range jr {
				t, err := termFromJSON(jt)
				if err != nil {
					return nil, err
				}
				row[j] = t
			}
			s.rows = append(s.rows, row)
		}
	}
}

func refStreamError(f *wireFrame) error {
	if f.Quota {
		return ErrQuotaExceeded
	}
	return fmt.Errorf("endpoint: remote stream: %s", f.Error)
}
