package sparql

import (
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

func analyze(t *testing.T, query string, params ...string) ShardShape {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	isParam := func(name string) bool {
		for _, p := range params {
			if p == name {
				return true
			}
		}
		return false
	}
	return AnalyzeShard(q, isParam)
}

func TestAnalyzeShardShapes(t *testing.T) {
	// The aligner's sampling probe: star on a projected subject with a
	// parameter predicate and a RAND LIMIT tail.
	sh := analyze(t, "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	if !sh.Decomposable || sh.SubjectVar != "x" || sh.SubjectCol != 0 {
		t.Fatalf("sample probe misclassified: %+v", sh)
	}
	if !sh.MergeOrdered || !sh.OrderTotal || !sh.KeysMergeable || sh.RandFilters {
		t.Fatalf("sample probe merge flags wrong: %+v", sh)
	}
	if len(sh.Keys) != 1 || !sh.Keys[0].Rand || sh.Keys[0].Desc {
		t.Fatalf("sample probe keys wrong: %+v", sh.Keys)
	}

	// The UBS overlap probe: star with an EXISTS subgroup on the same
	// subject.
	sh = analyze(t, `SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`, "a", "b", "n")
	if !sh.Decomposable || sh.SubjectVar != "x" || !sh.MergeOrdered || !sh.KeysMergeable {
		t.Fatalf("overlap probe misclassified: %+v", sh)
	}

	// Concrete-subject probes route to one shard.
	sh = analyze(t, "SELECT ?p WHERE { <http://x/alice> ?p <http://x/paris> }")
	if !sh.Decomposable || sh.Subject != rdf.NewIRI("http://x/alice") {
		t.Fatalf("concrete-subject probe misclassified: %+v", sh)
	}

	// Parameter-subject probes route per execution.
	sh = analyze(t, "SELECT ?y WHERE { $x $r ?y }", "x", "r")
	if !sh.Decomposable || sh.SubjectParam != "x" {
		t.Fatalf("param-subject probe misclassified: %+v", sh)
	}

	// Cross-subject joins are not decomposable.
	sh = analyze(t, "SELECT ?x WHERE { ?x <http://x/p> ?y . ?y <http://x/q> ?z }")
	if sh.Decomposable {
		t.Fatalf("path join wrongly decomposable: %+v", sh)
	}

	// Patternless queries are not decomposable (fan-out would replicate
	// their rows per shard).
	sh = analyze(t, "ASK { }")
	if sh.Decomposable {
		t.Fatalf("patternless ASK wrongly decomposable: %+v", sh)
	}

	// A concrete object demotes merge ordering (object-keyed postings
	// do not interleave by subject) but not decomposability.
	sh = analyze(t, "SELECT ?x WHERE { ?x <http://x/p> <http://x/o> }")
	if !sh.Decomposable || sh.MergeOrdered {
		t.Fatalf("object-bound probe misclassified: %+v", sh)
	}

	// An unprojected subject cannot drive the ordered merge.
	sh = analyze(t, "SELECT ?y WHERE { ?x <http://x/p> ?y }")
	if !sh.Decomposable || sh.MergeOrdered || sh.SubjectCol != -1 {
		t.Fatalf("hidden-subject probe misclassified: %+v", sh)
	}

	// A variable predicate keeps decomposability but kills ordering.
	sh = analyze(t, "SELECT ?x ?p ?y WHERE { ?x ?p ?y }")
	if !sh.Decomposable || sh.MergeOrdered {
		t.Fatalf("var-predicate probe misclassified: %+v", sh)
	}

	// RAND in a filter cannot be reproduced at the merge point.
	sh = analyze(t, "SELECT ?x WHERE { ?x <http://x/p> ?y . FILTER (RAND() < 0.5) }")
	if !sh.RandFilters {
		t.Fatalf("filter RAND not detected: %+v", sh)
	}

	// Deterministic ORDER BY keys over projected variables compile.
	sh = analyze(t, "SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY DESC(?y) ?x")
	if !sh.KeysMergeable || len(sh.Keys) != 2 || sh.Keys[0].key == nil || !sh.Keys[0].Desc {
		t.Fatalf("deterministic keys misclassified: %+v", sh)
	}
	row := []rdf.Term{rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/b")}
	rk := NewRowKeys(sh.Keys)
	v := rk.Eval(0, row)
	if c, ok := valuesOrder(v, rk.Eval(0, row)); !ok || c != 0 {
		t.Fatalf("key evaluator unstable: %v %v", c, ok)
	}
	if v.kind != vTerm || v.t != row[1] {
		t.Fatalf("DESC(?y) over %v = %+v, want the ?y column", row, v)
	}

	// Keys over unprojected variables do not.
	sh = analyze(t, "SELECT ?x WHERE { ?x <http://x/p> ?y } ORDER BY ?y")
	if sh.KeysMergeable {
		t.Fatalf("unprojected key wrongly mergeable: %+v", sh)
	}
}

func TestRandStreamMatchesEngineStream(t *testing.T) {
	k := kb.New("rand")
	for i := 0; i < 20; i++ {
		k.AddIRIs(
			"http://x/s"+string(rune('a'+i)),
			"http://x/p",
			"http://x/o")
	}
	const query = "SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND()"
	eng := NewEngineSeeded(k, 42)
	res, err := eng.EvalString(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive the stream and re-sort the enumeration manually: the
	// engine's output order must match a (draw, enumeration-index)
	// sort of the rows in enumeration order.
	unordered, err := eng.EvalString("SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	var stream RandStream
	stream.Seed(42, q.String())
	draw := stream.Float64
	type keyed struct {
		row []rdf.Term
		k   float64
		i   int
	}
	rows := make([]keyed, len(unordered.Rows))
	for i, r := range unordered.Rows {
		rows[i] = keyed{row: r, k: draw(), i: i}
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			less := rows[j].k < rows[i].k || (rows[j].k == rows[i].k && rows[j].i < rows[i].i)
			if less {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	if len(res.Rows) != len(rows) {
		t.Fatalf("row counts differ: %d vs %d", len(res.Rows), len(rows))
	}
	for i := range rows {
		for c := range rows[i].row {
			if rows[i].row[c] != res.Rows[i][c] {
				t.Fatalf("row %d differs: %v vs %v", i, rows[i].row, res.Rows[i])
			}
		}
	}
}

func TestTemplateFromQueryRoundTrip(t *testing.T) {
	src := "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
	tmpl, err := ParseTemplate(src, "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	// Strip the ordering clauses the way the federation layer does.
	q := tmpl.Query()
	q.OrderBy = nil
	q.Limit = -1
	q.LimitVar = ""
	q.Offset = 0
	stripped, err := TemplateFromQuery(q, "r")
	if err != nil {
		t.Fatal(err)
	}
	text, err := stripped.Text(IRIArg("http://x/p"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse("SELECT ?x ?y WHERE { ?x <http://x/p> ?y }")
	if err != nil {
		t.Fatal(err)
	}
	if text != want.String() {
		t.Fatalf("stripped template text %q, want %q", text, want.String())
	}

	// Full round trip with the parameter list unchanged.
	again, err := TemplateFromQuery(tmpl.Query(), "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	a, err := tmpl.Text(IRIArg("http://x/p"), IntArg(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.Text(IRIArg("http://x/p"), IntArg(5))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("round-tripped template text differs:\n%s\nvs\n%s", a, b)
	}

	// A vanished parameter must be reported.
	if _, err := TemplateFromQuery(q, "r", "n"); err == nil {
		t.Fatal("TemplateFromQuery accepted a parameter that no longer occurs")
	}
}
