package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sofya/internal/cluster"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/shard"
	"sofya/internal/synth"
)

// serveMux serves ep the way main does and returns the server's URL.
func serveMux(t *testing.T, ep endpoint.Endpoint, cg *cluster.Group) string {
	t.Helper()
	mux, vars := newServingMux(ep, cg, nil)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	if got := vars().(map[string]any)["endpoint"]; got != ep.Name() {
		t.Fatalf("vars name the endpoint %v, want %q", got, ep.Name())
	}
	return srv.URL
}

// TestFrontEndAnswersLikeMonolith is the three-data-nodes-and-a-front-end
// deployment of the package comment, in one process: a -peers front-end
// over three -shard-of i/3 nodes answers every request with the bytes of
// one sparqld serving the whole KB — ordered on RAND(), ordered on
// deterministic keys (evaluated at the front-end's merge), unordered and
// ASK, as a results document and as a stream.
func TestFrontEndAnswersLikeMonolith(t *testing.T) {
	const (
		seed    = 1
		maxRows = 10 // below the relation's 14 facts: the row cap is part of the answer
	)
	quota := endpoint.Quota{MaxRows: maxRows}
	base := synth.Generate(synth.TinySpec()).Yago
	monolith := serveMux(t, endpoint.NewLocalRestricted(base, seed, quota), nil)

	var nodes []string
	for _, arg := range []string{"0/3", "1/3", "2/3"} {
		i, n, err := parseShardOf(arg)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, serveMux(t, endpoint.NewLocalRestricted(kb.Partition(base, n)[i], seed, quota), nil))
	}
	g, err := cluster.FromURLs(base.Name(), seed, parsePeers(strings.Join(nodes, ",")), cluster.Options{}, shard.RowCap(maxRows))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	frontEnd := serveMux(t, g, g)

	const rel = "<http://yago-knowledge.org/resource/wasBornIn>"
	answers := 0
	for _, query := range []string{
		"SELECT ?x ?y WHERE { ?x " + rel + " ?y } ORDER BY RAND() LIMIT 5",
		"SELECT ?x ?y WHERE { ?x " + rel + " ?y } ORDER BY ?y LIMIT 6",
		"SELECT ?x ?y WHERE { ?x " + rel + " ?y } ORDER BY DESC(STRLEN(STR(?y))) ?x LIMIT 4 OFFSET 1",
		"SELECT ?x ?y WHERE { ?x " + rel + " ?y } ORDER BY DESC(?x) ?y",
		"SELECT ?x ?y WHERE { ?x " + rel + " ?y }",
		"ASK { ?x " + rel + " ?y }",
		"ASK { ?x <http://nowhere/rel> ?y }",
	} {
		for _, form := range []url.Values{{"query": {query}}, {"query": {query}, "stream": {"1"}}} {
			post := func(base string) (string, string) {
				resp, err := http.PostForm(base, form)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %v: status %d, %v", base, form, resp.StatusCode, err)
				}
				return resp.Header.Get("Content-Type"), string(body)
			}
			wantType, want := post(monolith)
			gotType, got := post(frontEnd)
			if gotType != wantType || got != want {
				t.Errorf("%v:\nfront-end %s\n%s\nmonolith %s\n%s", form, gotType, got, wantType, want)
			}
			if len(want) > 100 {
				answers++
			}
		}
	}
	if answers < 10 {
		t.Fatalf("only %d of the answers held rows: the world has no %s", answers, rel)
	}
}

func TestParsers(t *testing.T) {
	for arg, want := range map[string][][]string{
		"http://a:1":                          {{"http://a:1"}},
		"http://a:1,http://b:1":               {{"http://a:1"}, {"http://b:1"}},
		" http://a:1 | http://b:1 ,http://c ": {{"http://a:1", "http://b:1"}, {"http://c"}},
		"http://a:1,,|,http://b:1|":           {{"http://a:1"}, {"http://b:1"}},
		"":                                    nil,
		" , | ":                               nil,
	} {
		if got := parsePeers(arg); !reflect.DeepEqual(got, want) {
			t.Errorf("parsePeers(%q) = %q, want %q", arg, got, want)
		}
	}

	for arg, want := range map[string][2]int{"0/1": {0, 1}, "0/3": {0, 3}, "2/3": {2, 3}, "11/12": {11, 12}} {
		if i, n, err := parseShardOf(arg); err != nil || [2]int{i, n} != want {
			t.Errorf("parseShardOf(%q) = %d, %d, %v; want %v", arg, i, n, err, want)
		}
	}
	for _, arg := range []string{"", "3", "3/", "/3", "a/b", "3/3", "4/3", "-1/3", "0/0", "0/-2", "1 of 3"} {
		if i, n, err := parseShardOf(arg); err == nil {
			t.Errorf("parseShardOf(%q) = %d, %d; want an error", arg, i, n)
		}
	}

	for _, tc := range []struct{ world, side, kb, err string }{
		{"tiny", "yago", "yago", ""},
		{"tiny", "dbp", "dbpedia", ""},
		{"papre", "yago", "", `-synthetic: unknown world "papre": want tiny or paper`},
		{"", "yago", "", `-synthetic: unknown world "": want tiny or paper`},
		{"tiny", "dpb", "", `-side: unknown side "dpb": want yago or dbp`},
		{"tiny", "dbpedia", "", `-side: unknown side "dbpedia": want yago or dbp`},
	} {
		k, err := syntheticKB(tc.world, tc.side)
		switch {
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("syntheticKB(%q, %q): error %v, want %q", tc.world, tc.side, err, tc.err)
		case tc.err == "" && (err != nil || k.Name() != tc.kb):
			t.Errorf("syntheticKB(%q, %q) = %v, %v; want the KB %q", tc.world, tc.side, k, err, tc.kb)
		}
	}

	dir := t.TempDir()
	var shards []string
	for i := 0; i < 3; i++ {
		shards = append(shards, filepath.Join(dir, fmt.Sprintf("yago-shard-%d-of-3.snap", i)))
	}
	whole := filepath.Join(dir, "yago.snap")
	for _, path := range append([]string{whole}, shards...) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	missing := filepath.Join(dir, "missing.snap")
	for arg, want := range map[string][]string{
		whole:                                   {whole},
		filepath.Join(dir, "yago-shard-*.snap"): shards,
		shards[2] + ", " + shards[0] + ",":      {shards[2], shards[0]},
		whole + "," + filepath.Join(dir, "yago-shard-[12]-of-3.snap"): {whole, shards[1], shards[2]},
		missing: {missing}, // a literal path: opening it names the problem
		" , ":   nil,
	} {
		if got, err := snapshotPaths(arg); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("snapshotPaths(%q) = %q, %v; want %q", arg, got, err, want)
		}
	}
	if got, err := snapshotPaths(whole + "," + filepath.Join(dir, "[")); err == nil {
		t.Errorf("a malformed pattern was accepted: %q", got)
	}
}
