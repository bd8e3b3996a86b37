package cluster

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sampling"
	"sofya/internal/synth"
)

// wireKB is one KB served as three subject-hash shards behind counting
// HTTP handlers, federated by NewGroup.
type wireKB struct {
	group  *Group
	locals []*endpoint.Local
	reqs   atomic.Int64
}

func (k *wireKB) queries() (n int) {
	for _, l := range k.locals {
		n += l.Stats().Queries
	}
	return n
}

// stripMulti makes h a server that does not know the multi extension: it
// sees one query field, the first, as any endpoint that is not sparqld.
func stripMulti(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.ParseForm(); err == nil && r.PostForm.Get("multi") != "" {
			r.PostForm.Del("multi")
			r.PostForm["query"] = r.PostForm["query"][:1]
		}
		h.ServeHTTP(w, r)
	})
}

func newWireKB(t *testing.T, src *kb.KB, seed int64, foreign bool) *wireKB {
	t.Helper()
	k := &wireKB{}
	var shards [][]endpoint.Endpoint
	for _, part := range kb.Partition(src, 3) {
		local := endpoint.NewLocal(part, seed)
		k.locals = append(k.locals, local)
		var h http.Handler = endpoint.NewServer(local)
		if foreign {
			h = stripMulti(h)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			k.reqs.Add(1)
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		shards = append(shards, []endpoint.Endpoint{endpoint.NewClient(part.Name(), srv.URL, nil)})
	}
	g, err := NewGroup(src.Name(), seed, shards, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	k.group = g
	return k
}

// TestAlignmentRequestsOnTheWire counts what grouping a stage's probes
// saves where it is paid: the same heads aligned over two 3-shard HTTP
// clusters, once against servers with the multi extension and once
// against servers stripped of it. The alignments and the queries the
// shards ran are the same; the HTTP requests are not: 1,996 against
// 9,529 (0.209×) measured — a stage's sample, overlap, sibling and
// object probes are each one request per shard. (2,095 against 13,315,
// 0.157×, before each alignment asked every object question once: the
// repeats it stopped asking were mostly riders on requests sent anyway.
// 8,057, 0.605×, while only whole results were grouped and every stream
// was a request.)
func TestAlignmentRequestsOnTheWire(t *testing.T) {
	// The heads of the benchmark's onthefly workloads: every fifth Yago
	// relation aligned into DBpedia's, every tenth DBpedia relation the
	// other way.
	w := synth.Generate(synth.DefaultSpec())
	cfg := core.UBSConfig()
	cfg.Parallelism = 2
	run := func(foreign bool) ([][]core.Alignment, int, int64) {
		yago, dbp := newWireKB(t, w.Yago, 11, foreign), newWireKB(t, w.Dbp, 12, foreign)
		d2y := core.New(yago.group, dbp.group, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
		y2d := core.New(dbp.group, yago.group, sampling.LinkView{Links: w.Links, KIsA: false}, cfg)
		var out [][]core.Alignment
		align := func(a *core.Aligner, rels []string, stride int) {
			for i := 0; i < len(rels); i += stride {
				als, err := a.AlignRelation(rels[i])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, als)
			}
		}
		align(d2y, w.Report.YagoRelations, 5)
		align(y2d, w.Report.DbpRelations, 10)
		return out, yago.queries() + dbp.queries(), yago.reqs.Load() + dbp.reqs.Load()
	}
	grouped, gq, greqs := run(false)
	single, sq, sreqs := run(true)
	if !reflect.DeepEqual(grouped, single) {
		t.Fatal("alignments differ between servers with and without the multi extension")
	}
	if gq != sq || sreqs != int64(sq) {
		t.Fatalf("queries at the shards: %d with the extension, %d without (in %d requests)", gq, sq, sreqs)
	}
	t.Logf("%d heads, %d queries: %d HTTP requests with the extension, %d without", len(grouped), gq, greqs, sreqs)
	if float64(greqs) > 0.25*float64(sreqs) {
		t.Fatalf("%d HTTP requests with the extension, %d without: want at most 0.25×", greqs, sreqs)
	}
}
