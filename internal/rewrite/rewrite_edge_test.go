package rewrite

import (
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/ilp"
	"sofya/internal/sparql"
)

// TestRewriteTable drives the rewriter through the edge cases one at a
// time: every case rewrites one query against the shared fixture and
// checks substrings of (or errors from) the canonical output.
func TestRewriteTable(t *testing.T) {
	cases := []struct {
		name       string
		query      string
		want       []string // substrings of the rewritten canonical text
		reject     []string // substrings that must NOT appear
		wantErrSub string   // non-empty: expect an error containing this
	}{
		{
			name:  "predicate and both entity positions translated",
			query: `SELECT ?p WHERE { <http://y/alice> <http://y/knows> <http://y/paris> }`,
			want:  []string{"<http://d/alice>", "<http://d/knows>", "<http://d/paris>"},
		},
		{
			name:   "literal objects pass through untranslated",
			query:  `SELECT ?x WHERE { ?x <http://y/knows> "Alice"@en }`,
			want:   []string{`"Alice"@en`, "<http://d/knows>"},
			reject: []string{"<http://y/knows>"},
		},
		{
			name:  "equivalent mapping outranks higher-confidence subsumption",
			query: `SELECT ?x WHERE { ?x <http://y/wasBornIn> ?y }`,
			want:  []string{"<http://d/birthPlace>"},
			// cityOfBirth has higher confidence but is not equivalent
			reject: []string{"<http://d/cityOfBirth>"},
		},
		{
			name:  "EXISTS nested inside a boolean expression is rewritten",
			query: `SELECT ?x WHERE { ?x <http://y/knows> ?y . FILTER (EXISTS { ?x <http://y/wasBornIn> ?z } || ?x != ?y) }`,
			want:  []string{"<http://d/birthPlace>"},
			// the nested group's original predicate must be gone
			reject: []string{"<http://y/wasBornIn>"},
		},
		{
			name:  "NOT EXISTS nested under negation is rewritten",
			query: `SELECT ?x WHERE { ?x <http://y/knows> ?y . FILTER (!(NOT EXISTS { ?x <http://y/knows> <http://y/paris> })) }`,
			want:  []string{"<http://d/knows>", "<http://d/paris>"},
		},
		{
			name:  "ORDER BY, OFFSET and DISTINCT survive",
			query: `SELECT DISTINCT ?x WHERE { ?x <http://y/knows> ?y } ORDER BY DESC(?x) LIMIT 3 OFFSET 2`,
			want:  []string{"DISTINCT", "DESC(?x)", "LIMIT 3", "OFFSET 2"},
		},
		{
			name:       "unmapped relation inside EXISTS aborts",
			query:      `SELECT ?x WHERE { ?x <http://y/knows> ?y . FILTER EXISTS { ?x <http://y/unmapped> ?z } }`,
			wantErrSub: "no alignment",
		},
		{
			name:       "unlinked entity in object position aborts",
			query:      `SELECT ?x WHERE { ?x <http://y/knows> <http://y/atlantis> }`,
			wantErrSub: "no sameAs link",
		},
		{
			name:       "unlinked entity inside nested EXISTS aborts",
			query:      `SELECT ?x WHERE { ?x <http://y/knows> ?y . FILTER (?x != ?y && EXISTS { ?x <http://y/knows> <http://y/atlantis> }) }`,
			wantErrSub: "no sameAs link",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rw := testRewriter()
			got, err := rw.RewriteString(tc.query)
			if tc.wantErrSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErrSub) {
					t.Fatalf("error = %v, want containing %q", err, tc.wantErrSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Fatalf("missing %q in:\n%s", w, got)
				}
			}
			for _, r := range tc.reject {
				if strings.Contains(got, r) {
					t.Fatalf("unexpected %q in:\n%s", r, got)
				}
			}
			if _, err := sparql.Parse(got); err != nil {
				t.Fatalf("rewritten query does not parse: %v\n%s", err, got)
			}
		})
	}
}

// TestRewriteAddIsIncremental: Add may be called repeatedly; rankings
// re-sort across calls and rejected alignments never surface.
func TestRewriteAddIsIncremental(t *testing.T) {
	rw := New(nil)
	rw.Add([]core.Alignment{{
		Rule: ilp.Rule{Body: "http://d/b1", Head: "http://y/h"}, Accepted: true, Confidence: 0.6,
	}})
	rw.Add([]core.Alignment{
		{Rule: ilp.Rule{Body: "http://d/b2", Head: "http://y/h"}, Accepted: true, Confidence: 0.8},
		{Rule: ilp.Rule{Body: "http://d/b3", Head: "http://y/h"}, Accepted: false, Confidence: 0.99},
	})
	ms := rw.byHead["http://y/h"]
	if len(ms) != 2 {
		t.Fatalf("mappings = %+v", ms)
	}
	if ms[0].Body != "http://d/b2" || ms[1].Body != "http://d/b1" {
		t.Fatalf("ranking wrong after incremental Add: %+v", ms)
	}
}

// TestRewriteConfidenceTieBreaksOnBody: equal-confidence mappings order
// deterministically by body IRI.
func TestRewriteConfidenceTieBreaksOnBody(t *testing.T) {
	rw := New(nil)
	rw.Add([]core.Alignment{
		{Rule: ilp.Rule{Body: "http://d/zeta", Head: "http://y/h"}, Accepted: true, Confidence: 0.7},
		{Rule: ilp.Rule{Body: "http://d/alpha", Head: "http://y/h"}, Accepted: true, Confidence: 0.7},
	})
	ms := rw.byHead["http://y/h"]
	if ms[0].Body != "http://d/alpha" || ms[1].Body != "http://d/zeta" {
		t.Fatalf("tie-break wrong: %+v", ms)
	}
}
