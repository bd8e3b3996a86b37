package harness

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"sofya/bench/trace"
	"sofya/internal/cluster"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/eval"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// Workload names. They are final: later issues cite them.
const (
	OnTheFlyLocal   = "onthefly_local"
	OnTheFlyHTTP3   = "onthefly_http3"
	BatchTopKScale  = "batch_topk_scale"
	ServeHTTPClosed = "serve_http_closed"
)

// Workloads lists the workload names in reporting order.
var Workloads = []string{OnTheFlyLocal, OnTheFlyHTTP3, BatchTopKScale, ServeHTTPClosed}

// instance is one set-up serving stack, ready to run passes. A pass
// executes every unit (a head relation, a probe binding) exactly once,
// in the run's seeded order, grouped into ops of perOp units.
type instance struct {
	units, perOp int
	// callers is the closed-loop concurrency of a pass. The aligner
	// workloads have one caller (the aligner parallelizes internally up
	// to P); the serving workload has P.
	callers int
	// beginPass resets per-pass state: fresh aligners, purged caches.
	beginPass func()
	// runOp executes one op and reports whether every unit's output
	// matched the reference computed on a bare unsharded Local.
	runOp func(ctx context.Context, caller int, units []int) (ok bool, err error)
	// locals are the backing Locals: the only place queries and rows
	// are counted (cluster groups report none).
	locals []*endpoint.Local
	// backing maps a Local's name to its KB and seed, for the sparql
	// replay rung.
	backing map[string]backing
	// whole maps "yago"/"dbpedia" to the unsharded KBs (kb replay).
	whole map[string]*kb.KB
	// quality reports golden-checked values after at least one pass.
	quality func() map[string]float64
	// layer counters read from the program's own stats types
	caches    []*endpoint.Caching
	coalesced func() int64
	admission *endpoint.Admission
	replicas  []*cluster.Replicas
	// snapshots and sidecar are the fixture files this stack opened;
	// sources are the relations a candidate index is probed for.
	snapshots []string
	sidecar   string
	sources   []string
	closers   []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

func (in *instance) ops() int { return (in.units + in.perOp - 1) / in.perOp }

// stats sums queries and rows over the backing Locals.
func (in *instance) stats() (queries, rows int) {
	for _, l := range in.locals {
		s := l.Stats()
		queries += s.Queries
		rows += s.Rows
	}
	return
}

type backing struct {
	kb   *kb.KB
	seed int64
}

// env is what a workload constructor gets.
type env struct {
	spec Spec
	fx   Fixtures
	p    int           // concurrency bound: min(nproc, 4)
	tr   *trace.Tracer // nil when untraced
}

func newInstance(name string, e env) (*instance, error) {
	switch name {
	case OnTheFlyLocal:
		return newOnTheFly(e, false)
	case OnTheFlyHTTP3:
		return newOnTheFly(e, true)
	case BatchTopKScale:
		return newBatch(e)
	case ServeHTTPClosed:
		return newServe(e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// digestAlignments fingerprints an alignment result: every field the
// aligner decides, in output order.
func digestAlignments(als []core.Alignment) uint64 {
	h := fnv.New64a()
	for _, al := range als {
		fmt.Fprintf(h, "%s|%s|%s|%s|%t|%.12g|%.12g|%.12g|%d|%d|%d|%d|%d|%t|%d|%d|%t|%t|%.12g\n",
			al.Rule.BodyKB, al.Rule.Body, al.Rule.HeadKB, al.Rule.Head, al.Accepted,
			al.Confidence, al.PCA, al.CWA, al.Support, al.Evidence, al.DiscoveryHits,
			al.Contradictions, al.UBSRows, al.PrunedByUBS,
			al.ReverseContradictions, al.ReverseUBSRows, al.ReverseRefuted,
			al.Equivalent, al.ReverseConfidence)
	}
	return h.Sum64()
}

// digestResult fingerprints a SELECT result, rows in order.
func digestResult(res *sparql.Result) uint64 {
	h := fnv.New64a()
	for _, v := range res.Vars {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	for _, row := range res.Rows {
		for _, t := range row {
			h.Write([]byte(t.String()))
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	if res.Truncated {
		h.Write([]byte{2})
	}
	return h.Sum64()
}

func goldOf(pairs []synth.TruthPair, heads map[string]bool) *eval.Gold {
	var ps [][2]string
	for _, p := range pairs {
		if heads[p.Head] {
			ps = append(ps, [2]string{p.Body, p.Head})
		}
	}
	return eval.NewGold(ps)
}

func stride(all []string, n int) []string {
	var out []string
	for i := 0; i < len(all); i += n {
		out = append(out, all[i])
	}
	return out
}

// ---------------------------------------------------------------------
// onthefly_local / onthefly_http3

// head is one on-the-fly unit: align relation iri, a head of the yago
// (d2y) or dbpedia (y2d) side.
type head struct {
	iri string
	d2y bool
}

// aligners builds the two directions' aligners over one endpoint pair.
func aligners(yago, dbp endpoint.Endpoint, w *synth.World, cfg core.Config) (d2y, y2d *core.Aligner) {
	d2y = core.New(yago, dbp, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
	y2d = core.New(dbp, yago, sampling.LinkView{Links: w.Links, KIsA: false}, cfg)
	return
}

func newOnTheFly(e env, http3 bool) (_ *instance, err error) {
	in := &instance{perOp: 1, callers: 1, backing: map[string]backing{}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	w, err := synth.LoadWorld(e.fx.paperDir())
	if err != nil {
		return nil, err
	}
	in.closers = append(in.closers, func() { w.Yago.Close(); w.Dbp.Close() })
	in.whole = map[string]*kb.KB{w.Yago.Name(): w.Yago, w.Dbp.Name(): w.Dbp}
	in.snapshots = []string{filepath.Join(e.fx.paperDir(), "yago.snap"), filepath.Join(e.fx.paperDir(), "dbpedia.snap")}

	var heads []head
	yagoHeads, dbpHeads := map[string]bool{}, map[string]bool{}
	for _, r := range stride(w.Report.YagoRelations, e.spec.YagoStride) {
		heads = append(heads, head{r, true})
		yagoHeads[r] = true
	}
	for _, r := range stride(w.Report.DbpRelations, e.spec.DbpStride) {
		heads = append(heads, head{r, false})
		dbpHeads[r] = true
	}
	in.units = len(heads)

	cfg := core.UBSConfig()
	cfg.Parallelism = e.p

	// Reference: the same heads on bare unsharded Locals.
	refD2Y, refY2D := aligners(endpoint.NewLocal(w.Yago, seedYago), endpoint.NewLocal(w.Dbp, seedDbp), w, cfg)
	ref := make([]uint64, len(heads))
	for i, h := range heads {
		a := refY2D
		if h.d2y {
			a = refD2Y
		}
		als, err := a.AlignRelation(h.iri)
		if err != nil {
			return nil, fmt.Errorf("reference alignment of %s: %w", h.iri, err)
		}
		ref[i] = digestAlignments(als)
	}

	var yago, dbp endpoint.Endpoint
	if http3 {
		if yago, err = in.httpGroup(e, w.Yago.Name(), seedYago); err != nil {
			return nil, err
		}
		if dbp, err = in.httpGroup(e, w.Dbp.Name(), seedDbp); err != nil {
			return nil, err
		}
	} else {
		yago = in.local(e, w.Yago, seedYago)
		dbp = in.local(e, w.Dbp, seedDbp)
	}

	var d2y, y2d *core.Aligner
	last := make([][]core.Alignment, len(heads))
	in.beginPass = func() { d2y, y2d = aligners(yago, dbp, w, cfg) }
	in.runOp = func(_ context.Context, _ int, units []int) (bool, error) {
		h := heads[units[0]]
		a := y2d
		if h.d2y {
			a = d2y
		}
		als, err := a.AlignRelation(h.iri)
		if err != nil {
			return false, err
		}
		last[units[0]] = als
		return digestAlignments(als) == ref[units[0]], nil
	}
	goldD2Y, goldY2D := goldOf(w.Truth.DbpToYago, yagoHeads), goldOf(w.Truth.YagoToDbp, dbpHeads)
	in.quality = func() map[string]float64 {
		var d, y []core.Alignment
		for i, als := range last {
			if heads[i].d2y {
				d = append(d, als...)
			} else {
				y = append(y, als...)
			}
		}
		return map[string]float64{
			"core.f1_d2y":            eval.Score(d, goldD2Y).F1,
			"core.f1_y2d":            eval.Score(y, goldY2D).F1,
			"core.accepted_per_pass": float64(len(core.Accepted(d)) + len(core.Accepted(y))),
		}
	}
	return in, nil
}

// local builds a backing Local and registers it for stats and replay.
func (in *instance) local(e env, k *kb.KB, seed int64) endpoint.Endpoint {
	l := endpoint.NewLocal(k, seed)
	in.locals = append(in.locals, l)
	in.backing[k.Name()] = backing{k, seed}
	return e.tr.Endpoint(trace.LayerLocal, l)
}

// serve starts an in-process HTTP server for h on a loopback port and
// returns its base URL. All HTTP in the benchmark is host loopback: no
// link-rate or wire-latency claim follows from it.
func (in *instance) serve(e env, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: e.tr.Handler(h), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed from Close below
	}()
	in.closers = append(in.closers, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String() + "/sparql", nil
}

// client builds an endpoint.Client the way the program's own callers do
// (cluster.FromURLs, sofya.NewSPARQLClient, cmd/loadtest): with a nil
// http.Client, so it runs on
// the program's default transport. A traced run instruments that same
// client where it sits; nothing about the transport is restated here.
func (in *instance) client(e env, name, url string) (endpoint.Endpoint, error) {
	c := endpoint.NewClient(name, url, nil)
	if err := e.tr.InstrumentClient(c); err != nil {
		return nil, err
	}
	return e.tr.Endpoint(trace.LayerClient, c), nil
}

// httpGroup serves one paper-world KB as spec.Shards subject-hash shards
// behind loopback HTTP servers, federated by cluster.NewGroup: one
// replica per shard, hedging and health probing off, default wire batch.
// Traced and untraced runs share this one composition; the replica sets
// NewGroup builds inside itself take no wrapper, so the traced run sees
// them through their own Status counters and a replay rung.
func (in *instance) httpGroup(e env, kbName string, seed int64) (endpoint.Endpoint, error) {
	paths := e.fx.shardSnapshots(kbName, e.spec.Shards)
	in.snapshots = append(in.snapshots, paths...)
	sets := make([][]endpoint.Endpoint, len(paths))
	for i, path := range paths {
		part, err := kb.OpenSnapshot(path)
		if err != nil {
			return nil, err
		}
		in.closers = append(in.closers, func() { part.Close() })
		url, err := in.serve(e, endpoint.NewServerEndpoint(in.local(e, part, seed)))
		if err != nil {
			return nil, err
		}
		c, err := in.client(e, part.Name(), url)
		if err != nil {
			return nil, err
		}
		sets[i] = []endpoint.Endpoint{c}
	}
	g, err := cluster.NewGroup(kbName, seed, sets, cluster.Options{})
	if err != nil {
		return nil, err
	}
	in.closers = append(in.closers, g.Close)
	in.replicas = append(in.replicas, g.ReplicaSets()...)
	return e.tr.Endpoint(trace.LayerTop, g), nil
}

// ---------------------------------------------------------------------
// batch_topk_scale

func newBatch(e env) (_ *instance, err error) {
	in := &instance{perOp: e.spec.ChunkSize, callers: 1, backing: map[string]backing{}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	w, err := synth.LoadWorld(e.fx.scaleDir())
	if err != nil {
		return nil, err
	}
	in.closers = append(in.closers, func() { w.Yago.Close(); w.Dbp.Close() })
	in.whole = map[string]*kb.KB{w.Yago.Name(): w.Yago, w.Dbp.Name(): w.Dbp}
	in.snapshots = []string{filepath.Join(e.fx.scaleDir(), "yago.snap"), filepath.Join(e.fx.scaleDir(), "dbpedia.snap")}
	in.sidecar = e.fx.sidecar()
	heads := w.Report.YagoRelations
	in.units, in.sources = len(heads), heads

	// The cmd/sofya -all -batch -candidates -candidx path: top-k pruning
	// from the sidecar, one index shared by every aligner of the run.
	cfg := core.UBSConfig()
	cfg.Parallelism = e.p
	cfg.CandidateTopK = e.spec.TopK
	cfg.CandidateIndexPath = in.sidecar
	cfg.CandidateIndexCache = core.NewIndexCache()
	links := sampling.LinkView{Links: w.Links, KIsA: true}

	refAligner := core.New(endpoint.NewLocal(w.Yago, seedYago), endpoint.NewLocal(w.Dbp, seedDbp), links, cfg)
	refAls, err := refAligner.AlignRelations(heads)
	if err != nil {
		return nil, fmt.Errorf("reference batch alignment: %w", err)
	}
	if st := cfg.CandidateIndexCache.Stats(); st.Loaded != 1 {
		return nil, fmt.Errorf("candidate sidecar %s was not restored (index cache %+v)", in.sidecar, st)
	}
	ref := make([]uint64, len(heads))
	for i, als := range refAls {
		ref[i] = digestAlignments(als)
	}

	stack := func(k *kb.KB, seed int64) (endpoint.Endpoint, *endpoint.Caching, *endpoint.Coalescing) {
		cache := endpoint.NewCaching(in.local(e, k, seed), 0)
		co := endpoint.NewCoalescing(cache)
		return e.tr.Endpoint(trace.LayerTop, co), cache, co
	}
	yago, cy, coy := stack(w.Yago, seedYago)
	dbp, cd, cod := stack(w.Dbp, seedDbp)
	in.caches = []*endpoint.Caching{cy, cd}
	in.coalesced = func() int64 { return coy.Coalesced() + cod.Coalesced() }

	var aligner *core.Aligner
	last := make([][]core.Alignment, len(heads))
	in.beginPass = func() {
		cy.Purge()
		cd.Purge()
		aligner = core.New(yago, dbp, links, cfg)
	}
	rels := make([]string, 0, in.perOp)
	in.runOp = func(_ context.Context, _ int, units []int) (bool, error) {
		rels = rels[:0]
		for _, u := range units {
			rels = append(rels, heads[u])
		}
		res, err := aligner.AlignRelations(rels)
		if err != nil {
			return false, err
		}
		ok := true
		for i, u := range units {
			last[u] = res[i]
			ok = ok && digestAlignments(res[i]) == ref[u]
		}
		return ok, nil
	}
	all := map[string]bool{}
	for _, h := range heads {
		all[h] = true
	}
	gold := goldOf(w.Truth.DbpToYago, all)
	in.quality = func() map[string]float64 {
		var d []core.Alignment
		for _, als := range last {
			d = append(d, als...)
		}
		return map[string]float64{
			"core.f1_d2y":            eval.Score(d, gold).F1,
			"core.accepted_per_pass": float64(len(core.Accepted(d))),
		}
	}
	return in, nil
}

// ---------------------------------------------------------------------
// serve_http_closed

// probeKind is one of the aligner's probe templates as served over the
// whole-document path.
type probeKind struct {
	class  trace.Class
	tmpl   string
	params []string
	// weight is the share of bindings of this kind, fixed from the
	// proportions onthefly_local's trace shows (core.probes_per_op.*).
	weight float64
}

var probeKinds = []probeKind{
	{trace.ClassObjects, sampling.TmplObjects, []string{"x", "r"}, 0.65},
	{trace.ClassBetween, "SELECT ?p WHERE { $x ?p $y }", []string{"x", "y"}, 0.22},
	{trace.ClassSample, sampling.TmplSample, []string{"r", "n"}, 0.03},
	{trace.ClassOverlap, sampling.TmplOverlap, []string{"a", "b", "n"}, 0.07},
	{trace.ClassLiterals, "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }", []string{"x"}, 0.03},
}

// Sample sizes the aligner uses under core.UBSConfig.
const (
	serveSampleN  = 10
	serveOverlapN = 14
)

// bindingSeed fixes the probe set; the run seed only orders it.
const bindingSeed = 20160315

type binding struct {
	kind int
	args []sparql.Arg
}

// makeBindings draws n probe bindings from k's facts: facts are picked
// uniformly, so relations appear in proportion to their size.
func makeBindings(k *kb.KB, n int) []binding {
	triples := k.Triples()
	rng := rand.New(rand.NewSource(bindingSeed))
	// relations sharing a subject, for the overlap probe
	bySubject := map[string][]string{}
	for _, t := range triples {
		if t.O.IsIRI() {
			bySubject[t.S.Value] = append(bySubject[t.S.Value], t.P.Value)
		}
	}
	var entityFacts, literalFacts []rdf.Triple
	for _, t := range triples {
		if t.O.IsIRI() {
			entityFacts = append(entityFacts, t)
		} else {
			literalFacts = append(literalFacts, t)
		}
	}
	out := make([]binding, 0, n)
	for ki, kind := range probeKinds {
		count := int(kind.weight*float64(n) + 0.5)
		if ki == 0 {
			// the first kind absorbs rounding so the set has exactly n
			count = n
			for _, other := range probeKinds[1:] {
				count -= int(other.weight*float64(n) + 0.5)
			}
		}
		for c := 0; c < count; c++ {
			f := entityFacts[rng.Intn(len(entityFacts))]
			var args []sparql.Arg
			switch kind.class {
			case trace.ClassObjects:
				args = []sparql.Arg{sparql.IRIArg(f.S.Value), sparql.IRIArg(f.P.Value)}
			case trace.ClassBetween:
				args = []sparql.Arg{sparql.IRIArg(f.S.Value), sparql.IRIArg(f.O.Value)}
			case trace.ClassSample:
				args = []sparql.Arg{sparql.IRIArg(f.P.Value), sparql.IntArg(serveSampleN)}
			case trace.ClassOverlap:
				other := f.P.Value
				if sibs := bySubject[f.S.Value]; len(sibs) > 0 {
					other = sibs[rng.Intn(len(sibs))]
				}
				args = []sparql.Arg{sparql.IRIArg(f.P.Value), sparql.IRIArg(other), sparql.IntArg(serveOverlapN)}
			case trace.ClassLiterals:
				lf := f
				if len(literalFacts) > 0 {
					lf = literalFacts[rng.Intn(len(literalFacts))]
				}
				args = []sparql.Arg{sparql.IRIArg(lf.S.Value)}
			}
			out = append(out, binding{kind: ki, args: args})
		}
	}
	return out
}

func newServe(e env) (_ *instance, err error) {
	in := &instance{perOp: 1, callers: e.p, backing: map[string]backing{}}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	snap := filepath.Join(e.fx.paperDir(), "dbpedia.snap")
	in.snapshots = []string{snap}
	dbp, err := kb.OpenSnapshot(snap)
	if err != nil {
		return nil, err
	}
	in.closers = append(in.closers, func() { dbp.Close() })
	in.whole = map[string]*kb.KB{dbp.Name(): dbp}
	bindings := makeBindings(dbp, e.spec.Bindings)
	in.units = len(bindings)

	prepareAll := func(ep endpoint.Endpoint) ([]endpoint.PreparedQuery, error) {
		pqs := make([]endpoint.PreparedQuery, len(probeKinds))
		for i, k := range probeKinds {
			pq, err := ep.Prepare(k.tmpl, k.params...)
			if err != nil {
				return nil, err
			}
			pqs[i] = pq
		}
		return pqs, nil
	}

	refPQ, err := prepareAll(endpoint.NewLocal(dbp, seedDbp))
	if err != nil {
		return nil, err
	}
	ref := make([]uint64, len(bindings))
	for i, b := range bindings {
		res, err := refPQ[b.kind].SelectCtx(context.Background(), b.args...)
		if err != nil {
			return nil, fmt.Errorf("reference probe %d: %w", i, err)
		}
		ref[i] = digestResult(res)
	}

	in.admission = endpoint.NewAdmission(in.local(e, dbp, seedDbp), endpoint.Limits{MaxInFlight: 64})
	url, err := in.serve(e, endpoint.NewServerEndpoint(e.tr.Endpoint(trace.LayerServed, in.admission)))
	if err != nil {
		return nil, err
	}
	handles := make([][]endpoint.PreparedQuery, in.callers)
	for c := range handles {
		client, err := in.client(e, dbp.Name(), url)
		if err != nil {
			return nil, err
		}
		if handles[c], err = prepareAll(client); err != nil {
			return nil, err
		}
	}
	in.beginPass = func() {}
	in.runOp = func(ctx context.Context, caller int, units []int) (bool, error) {
		b := bindings[units[0]]
		res, err := handles[caller][b.kind].SelectCtx(ctx, b.args...)
		if err != nil {
			return false, err
		}
		return digestResult(res) == ref[units[0]], nil
	}
	in.quality = func() map[string]float64 { return map[string]float64{} }
	return in, nil
}
