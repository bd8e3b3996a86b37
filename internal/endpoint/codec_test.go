package endpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// codec_test.go holds the wire codec (codec.go) to its reference
// (codec_ref_test.go): the same bytes out, the same values in, in both
// directions between the two, over hostile terms and under fuzzing.

// hostileTerms are the values an encoder is most likely to get wrong.
var hostileTerms = []rdf.Term{
	rdf.NewIRI("http://x/plain"),
	rdf.NewIRI(""),
	rdf.NewIRI(`http://x/q"uo\te`),
	rdf.NewIRI("http://x/<a>&b"),
	rdf.NewBlank("b0"),
	rdf.NewBlank(""),
	rdf.NewLiteral(""),
	rdf.NewLiteral("\x00\x01\x08\x0c\n\r\t\x1f\x7f"),
	rdf.NewLiteral("line\u2028sep\u2029end"),
	rdf.NewLiteral("astral \U0001F600 \U0001D11E"),
	rdf.NewLiteral("bad utf8 \xff\xfe and a cut rune \xc3"),
	rdf.NewLiteral(`\u0041 is not an escape here`),
	rdf.NewLangLiteral("bonjour", "fr"),
	rdf.NewLangLiteral("", "en-GB"),
	rdf.NewTypedLiteral("1999", rdf.XSDGYear),
	rdf.NewTypedLiteral("typed as string", rdf.XSDString),
	rdf.NewTypedLiteral("", "http://x/dt\"quoted"),
	{Kind: rdf.Literal, Value: "both", Lang: "en", Datatype: rdf.XSDString},
	{Kind: rdf.Kind(7), Value: "no such kind"},
}

// hostileStream is a two-column stream over all of the above.
func hostileStream() *stream {
	s := &stream{vars: []string{"x", "y\"<"}}
	for i, t := range hostileTerms {
		s.rows = append(s.rows, []rdf.Term{t, hostileTerms[len(hostileTerms)-1-i]})
	}
	return s
}

// streamRows replays a stream as the Rows writeOne drains.
type streamRows struct {
	s *stream
	i int
}

func (r *streamRows) Vars() []string  { return r.s.vars }
func (r *streamRows) Next() bool      { r.i++; return r.i <= len(r.s.rows) }
func (r *streamRows) Row() []rdf.Term { return r.s.rows[r.i-1] }
func (r *streamRows) Err() error      { return r.s.err }
func (r *streamRows) Truncated() bool { return r.s.truncated }
func (r *streamRows) Close()          {}

// writeOne is the server's framed answer to one stream: the group of one
// rows.
func writeOne(w http.ResponseWriter, rows Rows) {
	writeSets(w, StreamContentType, 1, func(int) (Rows, error) { return rows, nil })
}

// encodeStream is writeOne's output for s: the body, and the recorder it
// went to.
func encodeStream(s *stream) ([]byte, *httptest.ResponseRecorder) {
	rec := httptest.NewRecorder()
	writeOne(rec, &streamRows{s: s})
	return rec.Body.Bytes(), rec
}

// decodeStream drains data through wireRows. A terminal error frame
// lands in the stream's err, like the reference's; any other failure is
// returned.
func decodeStream(data []byte) (*stream, error) {
	rows, err := newWireRows(io.NopCloser(bytes.NewReader(data)), int64(len(data)), 1)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	s := &stream{vars: rows.Vars()}
	for rows.Next() {
		s.rows = append(s.rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		if !errors.Is(err, ErrQuotaExceeded) && !strings.HasPrefix(err.Error(), "endpoint: remote stream: ") {
			return nil, err
		}
		s.err = err
	}
	s.truncated = rows.Truncated()
	return s, nil
}

func sameError(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// sameStream compares what two decoders made of one stream.
func sameStream(a, b *stream) error {
	switch {
	case fmt.Sprint(a.vars) != fmt.Sprint(b.vars) || len(a.vars) != len(b.vars):
		return fmt.Errorf("vars %q vs %q", a.vars, b.vars)
	case a.truncated != b.truncated:
		return fmt.Errorf("truncated %v vs %v", a.truncated, b.truncated)
	case !sameError(a.err, b.err):
		return fmt.Errorf("error %v vs %v", a.err, b.err)
	case len(a.rows) != len(b.rows):
		return fmt.Errorf("%d rows vs %d", len(a.rows), len(b.rows))
	}
	for i := range a.rows {
		if len(a.rows[i]) != len(b.rows[i]) {
			return fmt.Errorf("row %d: %v vs %v", i, a.rows[i], b.rows[i])
		}
		for j := range a.rows[i] {
			if a.rows[i][j] != b.rows[i][j] {
				return fmt.Errorf("row %d: %v vs %v", i, a.rows[i], b.rows[i])
			}
		}
	}
	return nil
}

func sameResult(a, b *sparql.Result) error {
	switch {
	case fmt.Sprint(a.Vars) != fmt.Sprint(b.Vars) || len(a.Vars) != len(b.Vars):
		return fmt.Errorf("vars %q vs %q", a.Vars, b.Vars)
	case a.Ask != b.Ask || a.Truncated != b.Truncated:
		return fmt.Errorf("ask/truncated %v/%v vs %v/%v", a.Ask, a.Truncated, b.Ask, b.Truncated)
	}
	return sameStream(&stream{rows: a.Rows}, &stream{rows: b.Rows})
}

// TestCodecStreamInterop: over hostile terms, in answers of less than a
// frame and of several, the codec writes the reference's bytes, and each side reads the other's frames
// to the same stream.
func TestCodecStreamInterop(t *testing.T) {
	streams := map[string]*stream{
		"hostile":   hostileStream(),
		"empty":     {vars: []string{"x"}},
		"truncated": {vars: []string{"x"}, rows: [][]rdf.Term{{rdf.NewIRI("http://x/a")}}, truncated: true},
		"no vars":   {rows: [][]rdf.Term{{}, {}}},
		"quota":     {vars: []string{"x"}, rows: [][]rdf.Term{{rdf.NewBlank("b")}}, err: ErrQuotaExceeded},
		"failed":    {vars: []string{"x"}, err: errors.New("endpoint: remote stream: upstream \"gone\"\n")},
	}
	// two full frames and a partial one of the hostile rows
	long := hostileStream()
	for i := 0; len(long.rows) < 2*WireBatch+WireBatch/3; i++ {
		long.rows = append(long.rows, long.rows[i])
	}
	streams["long"] = long
	for name, s := range streams {
		want, err := refEncodeStream(s)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := encodeStream(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded\n%s\nreference\n%s", name, got, want)
		}
		// reference-encoded frames → the codec's reader,
		// codec-encoded frames → the reference decoder
		hand, err := decodeStream(want)
		if err != nil {
			t.Fatalf("%s: reading reference frames: %v", name, err)
		}
		ref, err := refDecodeStream(got)
		if err != nil {
			t.Fatalf("%s: reference reading codec frames: %v", name, err)
		}
		if err := sameStream(hand, ref); err != nil {
			t.Fatalf("%s: codec and reference read differently: %v", name, err)
		}
		// What arrives is what was sent, up to what the format itself
		// normalizes (xsd:string, invalid UTF-8, -0).
		norm, err := refDecodeStream(want)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStream(hand, norm); err != nil {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		if len(hand.rows) != len(s.rows) {
			t.Fatalf("%s: %d rows arrived of %d", name, len(hand.rows), len(s.rows))
		}
	}
}

// TestCodecResultsInterop is TestCodecStreamInterop for the results
// document.
func TestCodecResultsInterop(t *testing.T) {
	hostile := hostileStream()
	results := map[string]*sparql.Result{
		"hostile":   {Vars: hostile.vars, Rows: hostile.rows},
		"empty":     {Vars: []string{"x"}},
		"truncated": {Vars: []string{"b", "a"}, Rows: [][]rdf.Term{{rdf.NewIRI("http://x/b"), rdf.NewLiteral("a")}}, Truncated: true},
		"no vars":   {Rows: [][]rdf.Term{{}, {}}},
		"repeated":  {Vars: []string{"x", "y", "x"}, Rows: [][]rdf.Term{{rdf.NewBlank("1"), rdf.NewBlank("2"), rdf.NewBlank("3")}}},
	}
	for name, res := range results {
		want, err := refMarshalSelect(res)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := MarshalSelect(res)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded\n%s\nreference\n%s", name, got, want)
		}
		hand, err := UnmarshalResults(want)
		if err != nil {
			t.Fatalf("%s: reading the reference document: %v", name, err)
		}
		ref, err := refUnmarshalResults(got)
		if err != nil {
			t.Fatalf("%s: reference reading the codec's document: %v", name, err)
		}
		if err := sameResult(hand, ref); err != nil {
			t.Fatalf("%s: codec and reference read differently: %v", name, err)
		}
		if len(hand.Rows) != len(res.Rows) {
			t.Fatalf("%s: %d rows arrived of %d", name, len(hand.Rows), len(res.Rows))
		}
	}
	for _, ok := range []bool{true, false} {
		want, _ := refMarshalAsk(ok)
		got, _ := MarshalAsk(ok)
		if !bytes.Equal(got, want) {
			t.Fatalf("ASK %v: encoded %s, reference %s", ok, got, want)
		}
		res, err := UnmarshalResults(want)
		if err != nil || res.Ask != ok || res.Rows != nil {
			t.Fatalf("ASK %v read back as %+v, %v", ok, res, err)
		}
	}
}

// foreignDocs are results documents as other SPARQL endpoints write
// them: members in another order, members this package has no use for,
// escapes where none are needed, the pre-1.1 "typed-literal".
var foreignDocs = []string{
	`{"results":{"ordered":true,"distinct":false,"bindings":[
	   {"y":{"datatype":"http://www.w3.org/2001/XMLSchema#integer","type":"typed-literal","value":"7"},
	    "x":{"value":"http:\/\/x\/a\ud83d\ude00","type":"uri"},
	    "unbound-elsewhere":{"type":"bnode","value":"b"}}]},
	  "head":{"link":[],"vars":["x","y"]}}`,
	` { "head" : { "vars" : [ ] , "link" : [ "http://x/meta" ] } , "boolean" : true , "extra" : { "a" : [ 1 , 2.5e-3 , null , { } ] } } `,
	`{"HEAD":{"Vars":["x"]},"Results":{"Bindings":[{"x":{"TYPE":"literal","Value":"v","XML:LANG":"en"}}]},"truncated":null}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"literal","value":"\ud800 lone, \udc00\ud800 swapped, \u00e9 \u00E9"}}]}}`,
}

func TestCodecForeignDocuments(t *testing.T) {
	for i, doc := range foreignDocs {
		hand, err := UnmarshalResults([]byte(doc))
		if err != nil {
			t.Fatalf("document %d: %v", i, err)
		}
		ref, err := refUnmarshalResults([]byte(doc))
		if err != nil {
			t.Fatalf("document %d: reference: %v", i, err)
		}
		if err := sameResult(hand, ref); err != nil {
			t.Fatalf("document %d: codec and reference read differently: %v", i, err)
		}
	}
	res, _ := UnmarshalResults([]byte(foreignDocs[0]))
	want := []rdf.Term{rdf.NewIRI("http://x/a\U0001F600"), rdf.NewTypedLiteral("7", rdf.XSDInteger)}
	if len(res.Rows) != 1 || res.Rows[0][0] != want[0] || res.Rows[0][1] != want[1] {
		t.Fatalf("document 0 read as %v, want %v", res.Rows, want)
	}
}

// TestCodecRejects: what the decoders refuse — malformed JSON, and the
// well-formed inputs the codec is stricter about than its reference.
func TestCodecRejects(t *testing.T) {
	const head = `{"head":{"vars":["x"]}}` + "\n"
	const row = `{"rows":[[{"type":"uri","value":"a"}]]}` + "\n"
	const end = `{"end":{"truncated":false}}` + "\n"
	if _, err := decodeStream([]byte(head + row + end)); err != nil {
		t.Fatalf("the well-formed stream the cases below are cut from: %v", err)
	}
	streams := map[string]string{
		"no head":               row + end,
		"head twice":            head + head + end,
		"no terminal frame":     head + row,
		"frame cut":             head + row[:len(row)-5],
		"last line unfinished":  head + row + end[:len(end)-1],
		"wide row":              head + `{"rows":[[{"type":"uri","value":"a"},{"type":"uri","value":"b"}]]}` + "\n" + end,
		"narrow row":            head + `{"rows":[[]]}` + "\n" + end,
		"null row":              head + `{"rows":[null]}` + "\n" + end,
		"unknown term type":     head + `{"rows":[[{"type":"iri","value":"a"}]]}` + "\n" + end,
		"term not an object":    head + `{"rows":[["a"]]}` + "\n" + end,
		"two kinds":             head + `{"rows":[[{"type":"uri","value":"a"}]],"end":{}}` + "\n",
		"member twice":          head + `{"end":{},"end":{}}` + "\n",
		"rows in the head":      `{"head":{"vars":["x"]},"rows":[]}` + "\n" + end,
		"two frames on a line":  head + strings.TrimSuffix(row, "\n") + end,
		"frame over two lines":  head + "{\n" + `"end":{}}` + "\n",
		"blank line":            head + "\n" + end,
		"data after the end":    head + row + end + row,
		"garbage after the end": head + end + "x",
		"trailing comma":        head + `{"end":{"truncated":false,}}` + "\n",
		"raw control character": head + "{\"error\":\"a\tb\"}\n",
		"bad escape":            head + `{"error":"\x41"}` + "\n",
		"short \\u":             head + `{"error":"\u00e"}` + "\n",
		"number 01":             `{"head":{"vars":["x"],"keys":[01]}}` + "\n" + end,
		"deep unknown member":   head + `{"x":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}` + "\n" + end,
	}
	for name, in := range streams {
		if s, err := decodeStream([]byte(in)); err == nil {
			t.Errorf("stream %q was accepted: %+v", name, s)
		}
	}
	for name, doc := range map[string]string{
		"empty":              ``,
		"not an object":      `[]`,
		"cut":                `{"head":{"vars":["x"]},"results":{"bindings":[{"x"`,
		"data after":         `{"head":{}} {}`,
		"missing variable":   `{"head":{"vars":["x","y"]},"results":{"bindings":[{"x":{"type":"bnode","value":"b"}}]}}`,
		"null binding":       `{"head":{"vars":["x"]},"results":{"bindings":[null]}}`,
		"null term":          `{"head":{"vars":["x"]},"results":{"bindings":[{"x":null}]}}`,
		"unknown term type":  `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"iri","value":"a"}}]}}`,
		"bad unused binding": `{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"bnode","value":"b"},"y":5}]}}`,
		"head twice":         `{"head":{"vars":["x"]},"head":{}}`,
		"results twice":      `{"head":{},"results":{"bindings":[]},"results":{"bindings":[]}}`,
		"boolean a string":   `{"head":{},"boolean":"true"}`,
		"bad skipped member": `{"head":{},"link":[1,],"boolean":true}`,
	} {
		if res, err := UnmarshalResults([]byte(doc)); err == nil {
			t.Errorf("document %q was accepted: %+v", name, res)
		}
	}
}

// trickyStreams and trickyDocs are inputs on which a decoder written by
// hand most easily parts ways with encoding/json: names matched under
// case folding, members given twice or as null, empty and mixed frames,
// numbers at the edges of the grammar, and the "keys" and "keyvals"
// members builds before PR 23 wrote, which neither side reads any more.
// Whether the codec accepts one or not, it must not read it differently.
var trickyStreams = []string{
	`{"head":{"vars":["x"],"keys":[0]}}` + "\n" +
		`{"rows":[[{"type":"uri","type":"bnode","value":"a","value":null,"Value":"b"}]],"keyvals":[[{"\u212a":"s","S":"v","s":null}]]}` + "\n" +
		`{"end":{"truncated":true,"truncated":false}}` + "\n",
	`{"head":{"vars":["x"],"vars":["y","z"],"keys":null}}` + "\n" + `{"rows":[],"keyvals":[]}` + "\n" + `{"quota":true}` + "\n" + `{"error":"late","quota":false}` + "\n",
	`{"head":{"vars":[]},"error":null,"end":null}` + "\n" + `{"rows":[[],[]]}` + "\n" + `{"end":{}}` + " \t\r\n",
	`{"error":"first frame","quota":true}` + "\n",
	`{"head":{"vars":["x"],"keys":[1],"vars":null,"keys":null}}` + "\n" + `{"rows":null,"keyvals":null}` + "\n" + `{"rows":[[]]}` + "\n" + `{"head":null,"end":{"truncated":null}}` + "\n",
	`{"head":{"vars":["x"],"keys":[0]}}` + "\n" + `{"rows":[[{"type":"bnode","value":"1"}]],"keyvals":[[{"k":"t","t":{"type":"bnode","value":"1"},"t":null}]]}` + "\n" + `{"end":{}}` + "\n",
	`{"head":{"vars":["x"],"keys":[0,1]}}` + "\n" +
		`{"keyvals":[[{"k":"n","n":-0},{"k":"n","n":1E+2}],[{"k":"b","b":true,"n":5},{"k":"t","t":{"type":"typed-literal","value":"1","datatype":"http://www.w3.org/2001/XMLSchema#string"}}]],"rows":[[{"type":"bnode","value":"1"}],[{"type":"bnode","value":"2"}]]}` + "\n" +
		`{"end":{"truncated":false}}` + "\n",
}

var trickyDocs = []string{
	`{"head":{"vars":["x","x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a"},"x":{"type":"bnode","value":"b"}}]}}`,
	`{"head":{"vars":["x"],"vars":null},"results":{"bindings":[{"x":{"type":"uri","value":"a"},"X":{"type":7}}]}}`,
	`{"head":{"vars":["x"]},"results":{"bindings":[{"x":{"type":"uri","value":"a"},"y":null,"z":{"type":"nonsense","extra":[1,{"a":null}]}}],"Bindings":null},"boolean":null,"Truncated":true}`,
	`{"results":{"bindings":[{}, {}]},"boolean":false,"head":{"vars":["x"]}}`,
	`{"results":{"bindings":[{},{}]}}`,
	`{"head":null,"results":null,"boolean":true,"boolean":false}`,
	`{"head":{"vars":["x"],"vars":null},"boolean":true,"boolean":null,"truncated":true,"truncated":null,"results":{"bindings":null}}`,
	`{"head":{"vars":["\u0078"]},"results":{"bindings":[{"x":{"type":"literal","value":"\ud83d\ude00","xml:lang":"","datatype":""}}]}}`,
}

// TestCodecTrickyInputs runs the fuzz properties over the tricky inputs,
// fuzzing or not.
func TestCodecTrickyInputs(t *testing.T) {
	accepted := 0
	for _, in := range trickyStreams {
		agreeOnStream(t, []byte(in))
		if _, err := decodeStream([]byte(in)); err == nil {
			accepted++
		}
	}
	for _, in := range trickyDocs {
		agreeOnResults(t, []byte(in))
		if _, err := UnmarshalResults([]byte(in)); err == nil {
			accepted++
		}
	}
	// Most of them are there to be accepted: refusing them all would
	// agree with any reference.
	if accepted < 8 {
		t.Fatalf("only %d of the tricky inputs were accepted", accepted)
	}
}

// allocated reports the bytes fn allocates, plus whatever the runtime
// allocates meanwhile on other goroutines.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a decoder may allocate for an input of n bytes: a
// term is twice as large in memory as its shortest JSON, and slices
// double as they grow.
func allocBound(n int) uint64 { return 40*uint64(n) + 64<<10 }

// FuzzWireFrames: arbitrary bytes never panic the frame reader nor make
// it allocate out of proportion; a stream it accepts, the reference
// reads to the same value; and what the encoder makes of that value is
// the reference's bytes, which both read back to it.
func FuzzWireFrames(f *testing.F) {
	// Seeds stay a few hundred bytes long: the fuzzer minimizes every
	// input it keeps, one byte at a time.
	small := hostileStream()
	for at := 0; at+3 <= len(small.rows); at += 8 {
		body, _ := encodeStream(&stream{vars: small.vars, rows: small.rows[at : at+3]})
		f.Add(body)
	}
	f.Add([]byte(keyedStreamFixture.answer))
	f.Add([]byte(`{"head":{"vars":["x"],"keys":[0]}}` + "\n" +
		`{"keyvals":[[{"k":"n","n":-0.5e+1}]],"rows":[[{"value":"\ud83d\ude00\u00e9","type":"bnode","x":[{}]}]],"y":null}` + "\n" +
		`{"error":"boom","quota":true}` + "\n \r\n"))
	f.Add([]byte(`{"HEAD":{"VARS":null}}` + "\n" + `{}` + "\n" + `{"error":""}` + "\n" + `{"End":{"Truncated":true}}` + "\n"))
	for _, in := range trickyStreams {
		f.Add([]byte(in))
	}
	// A grouped answer is several sequences in one body: read as one
	// stream it is refused at its second head, and what the fuzzer makes
	// of the seam must not be accepted either way.
	two, _ := encodeStream(&stream{vars: small.vars, rows: small.rows[:2], truncated: true})
	f.Add(append(append([]byte{}, two...), two...))
	f.Add(append(append([]byte{}, two...), `{"error":"boom","quota":true}`+"\n"...))
	f.Fuzz(agreeOnStream)
}

// agreeOnStream is the property FuzzWireFrames holds data to.
func agreeOnStream(t *testing.T, data []byte) {
	{
		var hand *stream
		var err error
		if got := allocated(func() { hand, err = decodeStream(data) }); got > allocBound(len(data)) {
			t.Fatalf("%d bytes allocated for %d bytes of input", got, len(data))
		}
		if err != nil {
			return
		}
		ref, err := refDecodeStream(data)
		if err != nil {
			t.Fatalf("accepted, but the reference says: %v", err)
		}
		if err := sameStream(hand, ref); err != nil {
			t.Fatalf("codec and reference read differently: %v", err)
		}
		if hand.err != nil && !errors.Is(hand.err, ErrQuotaExceeded) {
			// encode the remote error's text, not the text wrapped again
			hand.err = errors.New(strings.TrimPrefix(hand.err.Error(), "endpoint: remote stream: "))
			ref.err = fmt.Errorf("endpoint: remote stream: %s", hand.err)
		}
		want, err := refEncodeStream(hand)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := encodeStream(hand)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded\n%s\nreference\n%s", got, want)
		}
		for _, decode := range []func([]byte) (*stream, error){decodeStream, refDecodeStream} {
			back, err := decode(got)
			if err != nil {
				t.Fatalf("encoder output refused: %v\n%s", err, got)
			}
			if err := sameStream(back, ref); err != nil {
				t.Fatalf("encoder output read back differently: %v\n%s", err, got)
			}
		}
	}
}

// FuzzResultsJSON is FuzzWireFrames for the results document.
func FuzzResultsJSON(f *testing.F) {
	hostile := hostileStream()
	for at := 0; at+3 <= len(hostile.rows); at += 8 {
		doc, _ := MarshalSelect(&sparql.Result{Vars: hostile.vars, Rows: hostile.rows[at : at+3], Truncated: true})
		f.Add(doc)
	}
	for _, doc := range foreignDocs {
		f.Add([]byte(doc))
	}
	for _, in := range trickyDocs {
		f.Add([]byte(in))
	}
	f.Fuzz(agreeOnResults)
}

// agreeOnResults is the property FuzzResultsJSON holds data to.
func agreeOnResults(t *testing.T, data []byte) {
	{
		var hand *sparql.Result
		var err error
		if got := allocated(func() { hand, err = UnmarshalResults(data) }); got > allocBound(len(data)) {
			t.Fatalf("%d bytes allocated for %d bytes of input", got, len(data))
		}
		if err != nil {
			return
		}
		ref, err := refUnmarshalResults(data)
		if err != nil {
			t.Fatalf("accepted, but the reference says: %v", err)
		}
		if err := sameResult(hand, ref); err != nil {
			t.Fatalf("codec and reference read differently: %v", err)
		}
		want, err := refMarshalSelect(hand)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := MarshalSelect(hand)
		if hand.Ask || ref.Ask {
			want, _ = refMarshalAsk(hand.Ask)
			got, _ = MarshalAsk(hand.Ask)
			ref.Vars = nil // an ASK answer is written without its head
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoded\n%s\nreference\n%s", got, want)
		}
		for _, decode := range []func([]byte) (*sparql.Result, error){UnmarshalResults, refUnmarshalResults} {
			back, err := decode(got)
			if err != nil {
				t.Fatalf("encoder output refused: %v\n%s", err, got)
			}
			if err := sameResult(back, ref); err != nil {
				t.Fatalf("encoder output read back differently: %v\n%s", err, got)
			}
		}
	}
}

// frame64 is a full batch: 64 rows of two IRIs each, as one frame line,
// with the head it belongs under.
func frame64() (s *stream, head, line []byte) {
	s = &stream{vars: []string{"s", "o"}}
	for i := 0; i < WireBatch; i++ {
		s.rows = append(s.rows, []rdf.Term{
			rdf.NewIRI(fmt.Sprintf("http://dbpedia.org/resource/Subject_%04d", i)),
			rdf.NewIRI(fmt.Sprintf("http://dbpedia.org/resource/Object_%04d", i))})
	}
	body, _ := encodeStream(s)
	lines := bytes.SplitAfter(body, []byte("\n"))
	return s, lines[0], bytes.TrimSuffix(lines[1], []byte("\n"))
}

// discardWriter is the cheapest ResponseWriter there is, so that what a
// benchmark or an allocation count sees is the framed answer (writeOne).
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

func BenchmarkWireFrameEncode(b *testing.B) {
	s, _, line := frame64()
	rows := &streamRows{s: s}
	w := discardWriter{h: http.Header{}}
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for b.Loop() {
		rows.i = 0
		writeOne(w, rows)
	}
}

func BenchmarkWireFrameDecode(b *testing.B) {
	_, _, line := frame64()
	var d jsonDec
	var f frame
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for b.Loop() {
		if err := d.frame(line, &f, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// allocCeiling runs fn repeatedly and fails if its average allocation
// count exceeds limit.
func allocCeiling(t *testing.T, limit float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	fn()
	if got := testing.AllocsPerRun(50, fn); got > limit {
		t.Fatalf("%.1f allocs/op, ceiling %.0f", got, limit)
	}
}

// Encoding a 64-row frame into recycled buffers costs 1 allocation (the
// Content-Length header), where the reflected encode cost 204.
func TestAllocCeilingWireFrameEncode(t *testing.T) {
	s, _, _ := frame64()
	rows := &streamRows{s: s}
	w := discardWriter{h: http.Header{}}
	allocCeiling(t, 2, func() {
		rows.i = 0
		writeOne(w, rows)
	})
}

// Decoding one costs the strings it yields and their backing slice: 129
// allocations measured for its 128 term values (200 while the frame also
// carried a key value a row), where the reflected decode cost 813.
func TestAllocCeilingWireFrameDecode(t *testing.T) {
	_, _, line := frame64()
	var d jsonDec
	var f frame
	allocCeiling(t, 260, func() {
		if err := d.frame(line, &f, 2); err != nil {
			t.Fatal(err)
		}
	})
}

// A streamed row over an httptest loopback — request, server plan and
// enumeration, frames, client decode — measured at 3.3 allocations a
// row on a 1024-row stream, where it was 9.5 through encoding/json.
func TestAllocCeilingWireStreamedRow(t *testing.T) {
	const rows = 1024
	srv := httptest.NewServer(NewServer(NewLocal(bigKB(rows), 1)))
	defer srv.Close()
	pq, err := NewClient("wire", srv.URL, nil).Prepare("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }")
	if err != nil {
		t.Fatal(err)
	}
	allocCeiling(t, 6*rows, func() {
		stream, err := pq.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for stream.Next() {
			n++
		}
		if stream.Close(); n != rows || stream.Err() != nil {
			t.Fatalf("%d rows, %v", n, stream.Err())
		}
	})
}
