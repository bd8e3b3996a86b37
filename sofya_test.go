package sofya

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// The facade end-to-end: generate, align, rewrite, execute.
func TestFacadeEndToEnd(t *testing.T) {
	world := Generate(TinyWorldSpec())
	if world.Yago.Size() == 0 || world.Dbp.Size() == 0 {
		t.Fatal("empty world")
	}
	k := NewLocalEndpoint(world.Yago, 1)
	kp := NewLocalEndpoint(world.Dbp, 2)
	links := LinkView{Links: world.Links, KIsA: true}

	aligner := NewAligner(k, kp, links, UBSConfig())
	als, err := aligner.AlignRelation("http://yago-knowledge.org/resource/wasBornIn")
	if err != nil {
		t.Fatal(err)
	}
	accepted := AcceptedAlignments(als)
	if len(accepted) == 0 {
		t.Fatal("no alignments accepted")
	}
	if accepted[0].Rule.Body != "http://dbpedia.org/property/birthPlace" {
		t.Fatalf("top alignment = %+v", accepted[0].Rule)
	}

	rw := NewRewriter(links)
	rw.Add(als)
	got, err := rw.RewriteString(
		`SELECT ?x ?y WHERE { ?x <http://yago-knowledge.org/resource/wasBornIn> ?y } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kp.SelectCtx(context.Background(), got)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("rewritten query returned nothing")
	}
}

func TestFacadeHTTPAlignment(t *testing.T) {
	world := Generate(TinyWorldSpec())
	restricted := NewRestrictedEndpoint(world.Dbp, 2, Quota{MaxRows: 5000})
	srv := httptest.NewServer(NewSPARQLServer(restricted))
	defer srv.Close()

	k := NewLocalEndpoint(world.Yago, 1)
	remote := NewSPARQLClient("dbpedia", srv.URL)
	aligner := NewAligner(k, remote, LinkView{Links: world.Links, KIsA: true}, DefaultConfig())
	als, err := aligner.AlignRelation("http://yago-knowledge.org/resource/directedBy")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, al := range als {
		if al.Accepted && al.Rule.Body == "http://dbpedia.org/property/hasDirector" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hasDirector not aligned over HTTP: %+v", als)
	}
	if restricted.Stats().Queries == 0 {
		t.Fatal("no queries reached the server")
	}
}

func TestFacadeKBConstruction(t *testing.T) {
	k := NewKB("demo")
	k.Add(Triple{S: NewIRI("http://x/a"), P: NewIRI("http://x/p"), O: NewLiteral("v")})
	if k.Size() != 1 {
		t.Fatalf("size = %d", k.Size())
	}
	loaded, err := LoadKB("demo2", strings.NewReader(`<http://x/a> <http://x/p> "v" .`))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Triples(); len(got) != 1 || got[0] != (Triple{S: NewIRI("http://x/a"), P: NewIRI("http://x/p"), O: NewLiteral("v")}) {
		t.Fatalf("loaded KB holds %v", got)
	}
}

func TestFacadeLiteralHelpers(t *testing.T) {
	m := DefaultLiteralMatcher()
	ok, _ := m.Match(NewTypedLiteral("1815", XSDGYear), NewTypedLiteral("1815-12-10", XSDDate))
	if !ok {
		t.Fatal("year/date match failed")
	}
	if NewLangLiteral("x", "en").Lang != "en" {
		t.Fatal("lang literal")
	}
	if _, err := ParseQuery(`SELECT ?x WHERE { ?x ?p ?o }`); err != nil {
		t.Fatal(err)
	}
	if PCA.String() != "pcaconf" || CWA.String() != "cwaconf" {
		t.Fatal("measure names")
	}
}

func TestFacadeLinks(t *testing.T) {
	links := NewLinks()
	links.Add("http://y/a", "http://d/a")
	v := LinkView{Links: links, KIsA: true}
	if got, ok := v.FromK("http://y/a"); !ok || got != "http://d/a" {
		t.Fatalf("FromK = %q, %v", got, ok)
	}
}

func TestConfigConstructors(t *testing.T) {
	if DefaultConfig().Threshold != 0.3 {
		t.Fatal("DefaultConfig")
	}
	if CWAConfig().Measure != CWA || CWAConfig().Threshold != 0.1 {
		t.Fatal("CWAConfig")
	}
	ubs := UBSConfig()
	if !ubs.UseUBS || !ubs.UBSBodySiblings || !ubs.UBSHeadSiblings {
		t.Fatal("UBSConfig")
	}
	if PaperWorldSpec().YagoRelations != 92 || PaperWorldSpec().DbpRelations != 1313 {
		t.Fatal("PaperWorldSpec scale")
	}
}

// The batch facade: decorated endpoints + AlignRelations reproduce the
// sequential per-relation results while spending fewer KB queries.
func TestFacadeBatchAlignment(t *testing.T) {
	world := Generate(TinyWorldSpec())
	links := LinkView{Links: world.Links, KIsA: true}
	relations := world.Report.YagoRelations

	// sequential reference over fresh endpoints
	seq := NewAligner(NewLocalEndpoint(world.Yago, 1), NewLocalEndpoint(world.Dbp, 2),
		links, UBSConfig())
	var want [][]Alignment
	for _, r := range relations {
		als, err := seq.AlignRelation(r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, als)
	}

	k := NewLocalEndpoint(world.Yago, 1)
	kp := NewLocalEndpoint(world.Dbp, 2)
	cacheK := NewCachingEndpoint(k, 0)
	cacheKP := NewCachingEndpoint(kp, 0)
	cfg := UBSConfig()
	cfg.Parallelism = 8
	batch := NewAligner(cacheK, cacheKP, links, cfg)
	got, err := batch.AlignRelations(relations)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel batch over decorated endpoints differs from sequential alignment")
	}
	if cacheK.CacheStats().Hits == 0 && cacheKP.CacheStats().Hits == 0 {
		t.Fatal("batch alignment never hit the query cache")
	}
	t.Logf("batch queries: K=%d K'=%d, cache hits K=%d K'=%d",
		k.Stats().Queries, kp.Stats().Queries,
		cacheK.CacheStats().Hits, cacheKP.CacheStats().Hits)
}

// A sharded endpoint is a drop-in replacement behind the facade: the
// aligner produces the same accepted rules over a federated KB.
func TestFacadeShardedEndpoint(t *testing.T) {
	world := Generate(TinyWorldSpec())
	links := LinkView{Links: world.Links, KIsA: true}
	const r = "http://yago-knowledge.org/resource/wasBornIn"

	base := NewAligner(NewLocalEndpoint(world.Yago, 1), NewLocalEndpoint(world.Dbp, 2), links, UBSConfig())
	want, err := base.AlignRelation(r)
	if err != nil {
		t.Fatal(err)
	}

	k := NewShardedEndpoint(world.Yago, 3, 1)
	kp := NewShardedEndpoint(world.Dbp, 3, 2)
	if k.Name() != world.Yago.Name() {
		t.Fatalf("sharded endpoint name = %q", k.Name())
	}
	sharded := NewAligner(k, kp, links, UBSConfig())
	got, err := sharded.AlignRelation(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded alignments diverge:\ngot  %+v\nwant %+v", got, want)
	}
	if k.Stats().Queries == 0 {
		t.Fatal("sharded endpoint reported no queries")
	}
}
