package trace

import (
	"context"
	"net/http/httptest"
	"testing"

	"sofya/internal/cluster"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sampling"
	"sofya/internal/shard"
	"sofya/internal/synth"
)

// TestWrapperParity: the span wrappers expose StatsReporter,
// StreamBorrower and KeyedStreamer exactly when the wrapped value does,
// for every Endpoint implementation in the program. A wrapper that hid
// one would push the traced run onto the drain/replay fallbacks; one
// that invented one would skip them.
func TestWrapperParity(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	local := endpoint.NewLocal(w.Dbp, 1)
	srv := httptest.NewServer(endpoint.NewServer(local))
	defer srv.Close()
	client := endpoint.NewClient(w.Dbp.Name(), srv.URL, nil)
	replicas, err := cluster.NewReplicas([]endpoint.Endpoint{client}, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer replicas.Close()
	group := shard.Partitioned(w.Dbp, 3, 1)

	tr := New()
	for name, inner := range map[string]endpoint.Endpoint{
		"Local":      local,
		"Client":     client,
		"Caching":    endpoint.NewCaching(local, 0),
		"Coalescing": endpoint.NewCoalescing(local),
		"Admission":  endpoint.NewAdmission(local, endpoint.Limits{MaxInFlight: 4}),
		"Group":      group,
		"Replicas":   replicas,
	} {
		wrapped := tr.Endpoint(LayerTop, inner)
		_, innerStats := inner.(endpoint.StatsReporter)
		_, wrappedStats := wrapped.(endpoint.StatsReporter)
		if innerStats != wrappedStats {
			t.Errorf("%s: StatsReporter inner=%t wrapped=%t", name, innerStats, wrappedStats)
		}
		ipq, err := inner.Prepare(sampling.TmplSample, "r", "n")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wpq, err := wrapped.Prepare(sampling.TmplSample, "r", "n")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, innerB := ipq.(endpoint.StreamBorrower)
		_, wrappedB := wpq.(endpoint.StreamBorrower)
		if innerB != wrappedB {
			t.Errorf("%s: StreamBorrower inner=%t wrapped=%t", name, innerB, wrappedB)
		}
		_, innerK := ipq.(endpoint.KeyedStreamer)
		_, wrappedK := wpq.(endpoint.KeyedStreamer)
		if innerK != wrappedK {
			t.Errorf("%s: KeyedStreamer inner=%t wrapped=%t", name, innerK, wrappedK)
		}
	}
	if got := (*Tracer)(nil).Endpoint(LayerTop, local); got != endpoint.Endpoint(local) {
		t.Error("a nil tracer must return the endpoint itself")
	}
}

// TestInstrumentClientWrapsTheProgramsOwnTransport: a client built with
// a nil http.Client — the program's default transport — records one
// transport span per request once instrumented, the server-side spans
// hang under it, and instrumenting twice does not record twice.
func TestInstrumentClientWrapsTheProgramsOwnTransport(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	tr := New()
	local := tr.Endpoint(LayerLocal, endpoint.NewLocal(w.Dbp, 1))
	srv := httptest.NewServer(tr.Handler(endpoint.NewServerEndpoint(local)))
	defer srv.Close()
	client := endpoint.NewClient(w.Dbp.Name(), srv.URL, nil)
	for i := 0; i < 2; i++ {
		if err := tr.InstrumentClient(client); err != nil {
			t.Fatal(err)
		}
	}
	if err := (*Tracer)(nil).InstrumentClient(client); err != nil {
		t.Fatal(err)
	}
	ctx, end := tr.StartOp(context.Background())
	if _, err := tr.Endpoint(LayerClient, client).SelectCtx(ctx, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	end()
	sum := Analyze(tr.Spans())
	for _, l := range []Layer{LayerOp, LayerClient, LayerTransport, LayerHandler, LayerLocal} {
		if got := sum.Layers[l].Spans; got != 1 {
			t.Errorf("%s spans = %d, want 1", l, got)
		}
	}
	if sum.Misparented != 0 {
		t.Errorf("%d spans misparented", sum.Misparented)
	}
	if dialed, _ := tr.Conns(); dialed != 1 {
		t.Errorf("connections dialed = %d, want 1", dialed)
	}
}

// TestClassesCoverAligner: every probe the aligner issues carries one of
// the named classes. The two core templates are private to
// internal/core and repeated in this package; if they drift, probes
// fall into ClassOther and this fails.
func TestClassesCoverAligner(t *testing.T) {
	w := synth.Generate(synth.TinySpec())
	tr := New()
	wrap := func(k *kb.KB, seed int64) endpoint.Endpoint {
		return tr.Endpoint(LayerLocal, endpoint.NewLocal(k, seed))
	}
	a := core.New(wrap(w.Yago, 7), wrap(w.Dbp, 8), sampling.LinkView{Links: w.Links, KIsA: true}, core.UBSConfig())
	_, end := tr.StartOp(context.Background())
	for _, r := range w.Report.YagoRelations {
		if _, err := a.AlignRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	end()
	sum := Analyze(tr.Spans())
	if sum.Ops != 1 || sum.Layers[LayerLocal].Spans == 0 {
		t.Fatalf("ops=%d local spans=%d", sum.Ops, sum.Layers[LayerLocal].Spans)
	}
	if n := sum.ProbesByClass[ClassOther]; n != 0 {
		t.Errorf("%d aligner probes fell into ClassOther", n)
	}
	for c := ClassSample; c < NumClasses; c++ {
		if sum.ProbesByClass[c] == 0 {
			t.Errorf("no %s probes seen", c)
		}
	}
	if got, want := int64(len(tr.TopProbes())), sum.Layers[LayerLocal].Spans; got != want {
		t.Errorf("top probes logged = %d, spans = %d", got, want)
	}
}

func TestAnalyzeSelfTimesAndWallShares(t *testing.T) {
	// op [0,100]; two overlapping top probes [10,40] and [30,60], the
	// first with a local child [15,35]; a third probe [70,90] with two
	// local children [72,80] and [74,88].
	spans := []Span{
		{ID: 0, Parent: -1, Op: 0, Layer: LayerOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: LayerTop, Class: ClassSample, Start: 10, End: 40, Rows: 4},
		{ID: 2, Parent: 0, Op: 0, Layer: LayerTop, Class: ClassObjects, Start: 30, End: 60},
		{ID: 3, Parent: 1, Op: 0, Layer: LayerLocal, Start: 15, End: 35, Rows: 6},
		{ID: 4, Parent: 0, Op: 0, Layer: LayerTop, Class: ClassObjects, Start: 70, End: 90},
		{ID: 5, Parent: 4, Op: 0, Layer: LayerLocal, Start: 72, End: 80},
		{ID: 6, Parent: 4, Op: 0, Layer: LayerLocal, Start: 74, End: 88},
		{ID: 7, Parent: -1, Op: -1, Layer: NumLayers}, // still open: skipped
	}
	sum := Analyze(spans)
	if sum.Ops != 1 || sum.Spans != 7 || sum.OpWallNS != 100 || sum.Misparented != 0 {
		t.Fatalf("ops=%d spans=%d wall=%d misparented=%d", sum.Ops, sum.Spans, sum.OpWallNS, sum.Misparented)
	}
	// probes cover [10,60] ∪ [70,90] = 70; durations 30+30+20 = 80
	if sum.ProbeUnionNS != 70 || sum.ProbeDurNS != 80 {
		t.Errorf("probe union=%d dur=%d, want 70 and 80", sum.ProbeUnionNS, sum.ProbeDurNS)
	}
	if got := sum.Layers[LayerOp].SelfNS; got != 30 {
		t.Errorf("op self = %d, want 30", got)
	}
	top := sum.Layers[LayerTop]
	// top self: (30−20) + 30 + (20−16) = 44
	if top.SelfNS != 44 || top.Children != 3 || top.ChildRows != 6 || top.Rows != 4 {
		t.Errorf("top = %+v", top)
	}
	// one fanned span: slowest child 14, median (lower) 8
	if top.Fanned != 1 || top.StragglerNS != 6 {
		t.Errorf("fanned=%d straggler=%d, want 1 and 6", top.Fanned, top.StragglerNS)
	}
	if sum.ProbesByClass[ClassSample] != 1 || sum.ProbesByClass[ClassObjects] != 2 {
		t.Errorf("classes = %v", sum.ProbesByClass)
	}
	// wall shares telescope: local 20+16, top 70−36 = 34, op 30
	want := map[Layer]int64{LayerLocal: 36, LayerTop: 34, LayerOp: 30}
	var total int64
	for l := Layer(0); l < NumLayers; l++ {
		total += sum.Layers[l].WallNS
		if sum.Layers[l].WallNS != want[l] {
			t.Errorf("wall share of %s = %d, want %d", l, sum.Layers[l].WallNS, want[l])
		}
	}
	if total != sum.OpWallNS {
		t.Errorf("wall shares sum to %d, op wall is %d", total, sum.OpWallNS)
	}
}

// TestAnalyzeCountsMisparentedSpans: a span that lost its op, its parent
// or a level of the chain is counted, not folded into the layer above.
func TestAnalyzeCountsMisparentedSpans(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Op: 0, Layer: LayerOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Layer: LayerClient, Start: 10, End: 90},
		{ID: 2, Parent: 1, Op: 0, Layer: LayerTransport, Start: 20, End: 80},
		{ID: 3, Parent: 2, Op: 0, Layer: LayerHandler, Start: 30, End: 70},   // in place
		{ID: 4, Parent: -1, Op: -1, Layer: LayerHandler, Start: 30, End: 70}, // span header dropped
		{ID: 5, Parent: 0, Op: 0, Layer: LayerLocal, Start: 40, End: 60},     // context lost: hangs under the op
		{ID: 6, Parent: 7, Op: 0, Layer: LayerLocal, Start: 40, End: 60},     // parent never recorded
		{ID: 7, Parent: -1, Op: -1, Layer: NumLayers},
	}
	if got := Analyze(spans).Misparented; got != 3 {
		t.Errorf("misparented = %d, want 3", got)
	}
}
