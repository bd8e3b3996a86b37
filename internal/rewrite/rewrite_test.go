package rewrite

import (
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/ilp"
	"sofya/internal/sameas"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

func testRewriter() *Rewriter {
	links := sameas.New()
	links.Add("http://y/alice", "http://d/alice") // A = K side
	links.Add("http://y/paris", "http://d/paris")
	rw := New(sampling.LinkView{Links: links, KIsA: true})
	rw.Add([]core.Alignment{
		{
			Rule:       ilp.Rule{Body: "http://d/birthPlace", Head: "http://y/wasBornIn"},
			Accepted:   true,
			Confidence: 0.95,
			Equivalent: true,
		},
		{
			Rule:       ilp.Rule{Body: "http://d/cityOfBirth", Head: "http://y/wasBornIn"},
			Accepted:   true,
			Confidence: 0.99, // higher confidence but not equivalent
		},
		{
			Rule:     ilp.Rule{Body: "http://d/rejected", Head: "http://y/wasBornIn"},
			Accepted: false,
		},
		{
			Rule:       ilp.Rule{Body: "http://d/knows", Head: "http://y/knows"},
			Accepted:   true,
			Confidence: 0.9,
		},
	})
	return rw
}

func TestMappingsOrderEquivalentFirst(t *testing.T) {
	rw := testRewriter()
	ms := rw.byHead["http://y/wasBornIn"]
	if len(ms) != 2 {
		t.Fatalf("mappings = %+v", ms)
	}
	if !ms[0].Equivalent || ms[0].Body != "http://d/birthPlace" {
		t.Fatalf("equivalent mapping should rank first: %+v", ms)
	}
	best, ok := rw.Best("http://y/wasBornIn")
	if !ok || best.Body != "http://d/birthPlace" {
		t.Fatalf("Best = %+v, %v", best, ok)
	}
	if _, ok := rw.Best("http://y/ghost"); ok {
		t.Fatal("Best for unknown relation")
	}
}

func TestRewriteQuery(t *testing.T) {
	rw := testRewriter()
	got, err := rw.RewriteString(
		`SELECT ?x WHERE { ?x <http://y/wasBornIn> <http://y/paris> . ?x <http://y/knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "<http://d/birthPlace>") {
		t.Fatalf("predicate not rewritten: %s", got)
	}
	if !strings.Contains(got, "<http://d/paris>") {
		t.Fatalf("entity constant not translated: %s", got)
	}
	if !strings.Contains(got, "<http://d/knows>") {
		t.Fatalf("second predicate not rewritten: %s", got)
	}
	// result must parse
	if _, err := sparql.Parse(got); err != nil {
		t.Fatalf("rewritten query does not parse: %v\n%s", err, got)
	}
}

func TestRewritePreservesFiltersAndModifiers(t *testing.T) {
	rw := testRewriter()
	got, err := rw.RewriteString(
		`SELECT DISTINCT ?x WHERE { ?x <http://y/knows> ?y . FILTER (?x != ?y) } ORDER BY ?x LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DISTINCT", "FILTER", "ORDER BY", "LIMIT 5"} {
		if !strings.Contains(got, want) {
			t.Fatalf("lost %q: %s", want, got)
		}
	}
}

func TestRewriteErrors(t *testing.T) {
	rw := testRewriter()
	// unmapped relation
	if _, err := rw.RewriteString(`SELECT ?x WHERE { ?x <http://y/unknownRel> ?y }`); err == nil {
		t.Fatal("want error for unmapped relation")
	}
	// untranslatable constant
	if _, err := rw.RewriteString(`SELECT ?x WHERE { <http://y/nolink> <http://y/knows> ?x }`); err == nil {
		t.Fatal("want error for unlinked entity")
	}
	// bad syntax
	if _, err := rw.RewriteString(`SELEC bad`); err == nil {
		t.Fatal("want parse error")
	}
}

func TestRewriteVariablePredicatePassesThrough(t *testing.T) {
	rw := testRewriter()
	got, err := rw.RewriteString(`SELECT ?p WHERE { <http://y/alice> ?p <http://y/paris> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "?p") || !strings.Contains(got, "<http://d/alice>") {
		t.Fatalf("rewrite = %s", got)
	}
}

func TestRewriteNilLinksKeepsConstants(t *testing.T) {
	rw := New(nil)
	rw.Add([]core.Alignment{{
		Rule:     ilp.Rule{Body: "http://d/knows", Head: "http://y/knows"},
		Accepted: true, Confidence: 1,
	}})
	got, err := rw.RewriteString(`ASK { <http://y/alice> <http://y/knows> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "<http://y/alice>") {
		t.Fatalf("constant should be unchanged: %s", got)
	}
	if !strings.HasPrefix(got, "ASK") {
		t.Fatalf("form lost: %s", got)
	}
}

func TestRewriteFilterExistsPatterns(t *testing.T) {
	rw := testRewriter()
	got, err := rw.RewriteString(
		`SELECT ?x WHERE { ?x <http://y/knows> ?y . FILTER NOT EXISTS { ?x <http://y/wasBornIn> ?z } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "NOT EXISTS") || !strings.Contains(got, "<http://d/birthPlace>") {
		t.Fatalf("EXISTS pattern not rewritten: %s", got)
	}
}
