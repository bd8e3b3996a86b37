package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sofya/bench/trace"
	"sofya/internal/endpoint"
)

// Options selects one run: one workload, one seed, one mode.
type Options struct {
	Workload string
	// Seed orders the workload's units (heads, chunks, probe bindings).
	Seed int64
	// Seconds is the measured window; it is extended to a whole number
	// of passes.
	Seconds float64
	// Trace selects the traced run (per-layer metrics) over the
	// untraced one (end-to-end metrics).
	Trace   bool
	WorkDir string
	Spec    Spec
	// TraceOut, when set on a traced run, receives the span log as JSON.
	TraceOut string
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Info describes the conditions of a run; it is printed before the
// result and stored beside it by `bench all`.
type Info struct {
	Workload  string  `json:"workload"`
	Spec      string  `json:"spec"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	P         int     `json:"p"`
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	// SetupReps is how many set-ups setup_s is the median of.
	SetupReps  int `json:"setup_reps,omitempty"`
	Passes     int `json:"passes"`
	OpsPerPass int `json:"ops_per_pass"`
	// LatencySamples is the number of op latencies behind op_p50_ms and
	// op_p95_ms: those of the window's quiet passes.
	LatencySamples int      `json:"latency_samples"`
	Notes          []string `json:"notes,omitempty"`
}

// Concurrency is P: the bound on concurrent callers and connections the
// one load-generating process uses.
func Concurrency() int { return min(runtime.NumCPU(), 4) }

// passSample is what one pass cost.
type passSample struct {
	ops, failed      int
	wallNS, cpuNS    int64
	allocBytes       uint64
	queries, rowsOut int
}

// window is a measured sequence of whole passes.
type window struct {
	passes     []passSample
	latNS      []int64
	goroutines int // peak observed at op boundaries
	firstErr   error
}

func (w *window) attempted() (n int) {
	for _, p := range w.passes {
		n += p.ops
	}
	return
}

func (w *window) failed() (n int) {
	for _, p := range w.passes {
		n += p.failed
	}
	return
}

// runPass executes every op once, in order, with in.callers closed-loop
// callers, and appends op latencies to w.
func runPass(ctx context.Context, in *instance, order []int, tr *trace.Tracer, w *window) passSample {
	in.beginPass()
	nOps := in.ops()
	lat := make([]int64, nOps)
	var next, failed atomic.Int64
	var errOnce sync.Once
	var peak atomic.Int64
	caller := func(c int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= nOps {
				return
			}
			units := order[i*in.perOp : min((i+1)*in.perOp, len(order))]
			t0 := time.Now()
			opCtx, end := tr.StartOp(ctx)
			ok, err := in.runOp(opCtx, c, units)
			end()
			lat[i] = int64(time.Since(t0))
			if err != nil || !ok {
				failed.Add(1)
				if err == nil {
					err = fmt.Errorf("op %d: output differs from the bare-Local reference", i)
				}
				errOnce.Do(func() { w.firstErr = err })
			}
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
		}
	}

	var ms0, ms1 runtime.MemStats
	q0, r0 := in.stats()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNS()
	t0 := time.Now()
	if in.callers == 1 {
		caller(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < in.callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				caller(c)
			}()
		}
		wg.Wait()
	}
	wall := int64(time.Since(t0))
	cpu1 := cpuNS()
	runtime.ReadMemStats(&ms1)
	q1, r1 := in.stats()

	w.latNS = append(w.latNS, lat...)
	w.goroutines = max(w.goroutines, int(peak.Load()))
	ps := passSample{
		ops: nOps, failed: int(failed.Load()), wallNS: wall, cpuNS: cpu1 - cpu0,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, queries: q1 - q0, rowsOut: r1 - r0,
	}
	w.passes = append(w.passes, ps)
	return ps
}

// runWindow runs whole passes until at least seconds have elapsed.
func runWindow(ctx context.Context, in *instance, order []int, tr *trace.Tracer, seconds float64) *window {
	w := &window{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		runPass(ctx, in, order, tr, w)
		if !time.Now().Before(deadline) {
			return w
		}
	}
}

// setUp builds the stack and runs one full warm-up pass, so plan caches
// are filled, connections are dialed and lazy set-up has happened
// before anything is timed.
func setUp(ctx context.Context, name string, e env, order func(n int) []int) (*instance, []int, error) {
	in, err := newInstance(name, e)
	if err != nil {
		return nil, nil, err
	}
	ord := order(in.units)
	w := &window{}
	runPass(ctx, in, ord, e.tr, w)
	if w.firstErr != nil {
		in.close()
		return nil, nil, fmt.Errorf("warm-up pass: %w", w.firstErr)
	}
	return in, ord, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func perPass(w *window, f func(p passSample) float64) []float64 {
	out := make([]float64, len(w.passes))
	for i, p := range w.passes {
		out[i] = f(p)
	}
	return out
}

// quietLatencySamples is the least number of op latencies the timing
// percentiles are taken over: enough for p95 to have ten samples beyond
// it.
const quietLatencySamples = 200

// quiet reduces a window to its quiet passes: the fastest tenth by wall
// time, but at least two passes and at least quietLatencySamples ops. It
// returns their summed cost and their op latencies in ns, sorted.
//
// Every pass does the same work, so passes are repeated measurements of
// one quantity, and in a small shared sandbox their noise is one-sided —
// a neighbour on the memory bus, a descheduled vCPU only ever add time —
// and arrives in bursts that can cover most of a run. The timing metrics
// are therefore taken where the machine was quietest, from whole passes:
// whatever the program does to itself at a steady rate (GC pauses, lock
// convoys, admission queueing, hedge stalls) happens in a quiet pass as
// in any other and stays in its latencies. What this cannot see is a
// slowdown that spares a tenth of the passes entirely.
func quiet(w *window) (sum passSample, latNS []float64) {
	n := w.passes[0].ops
	byWall := make([]int, len(w.passes))
	for i := range byWall {
		byWall[i] = i
	}
	sort.Slice(byWall, func(a, b int) bool { return w.passes[byWall[a]].wallNS < w.passes[byWall[b]].wallNS })
	k := max((len(w.passes)+9)/10, (quietLatencySamples+n-1)/n, 2)
	for _, i := range byWall[:min(k, len(byWall))] {
		p := w.passes[i]
		sum.ops += p.ops
		sum.wallNS += p.wallNS
		sum.cpuNS += p.cpuNS
		for _, l := range w.latNS[i*n : (i+1)*n] {
			latNS = append(latNS, float64(l))
		}
	}
	sort.Float64s(latNS)
	return sum, latNS
}

func (p passSample) opsPerSec() float64 { return float64(p.ops) / (float64(p.wallNS) / 1e9) }

// opsPerSec is the throughput of the window's quiet passes.
func opsPerSec(w *window) float64 {
	q, _ := quiet(w)
	return q.opsPerSec()
}

// Run executes one run and returns its result and conditions.
func Run(ctx context.Context, o Options) (*Result, *Info, error) {
	fx, err := EnsureFixtures(o.WorkDir, o.Spec)
	if err != nil {
		return nil, nil, err
	}
	e := env{spec: o.Spec, fx: fx, p: Concurrency()}
	order := func(n int) []int { return rand.New(rand.NewSource(o.Seed)).Perm(n) }
	info := &Info{
		Workload: o.Workload, Spec: o.Spec.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		P: e.p, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	var res *Result
	if o.Trace {
		res, err = runTraced(ctx, o, e, order, info)
	} else {
		res, err = runUntraced(ctx, o, e, order, info)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, info, nil
}

func runUntraced(ctx context.Context, o Options, e env, order func(int) []int, info *Info) (*Result, error) {
	var in *instance
	var ord []int
	info.SetupReps = o.Spec.SetupReps
	setups := make([]float64, 0, o.Spec.SetupReps)
	for rep := 0; rep < o.Spec.SetupReps; rep++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, ord, err = setUp(ctx, o.Workload, e, order); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer in.close()

	runtime.GC()
	w := runWindow(ctx, in, ord, nil, o.Seconds)

	q, lat := quiet(w)
	ops := float64(w.attempted())
	var queries, rows int
	for _, p := range w.passes {
		queries += p.queries
		rows += p.rowsOut
	}
	info.Passes, info.OpsPerPass, info.LatencySamples = len(w.passes), in.ops(), len(lat)

	vals := map[string]float64{
		"setup_s":        median(setups),
		"ops_per_s":      q.opsPerSec(),
		"op_p50_ms":      percentile(lat, 0.50) / 1e6,
		"op_p95_ms":      percentile(lat, 0.95) / 1e6,
		"queries_per_op": float64(queries) / ops,
		"rows_per_op":    float64(rows) / ops,
		"cpu_ms_per_op":  float64(q.cpuNS) / 1e6 / float64(q.ops),
		"alloc_kb_per_op": median(perPass(w, func(p passSample) float64 {
			return float64(p.allocBytes) / 1024 / float64(p.ops)
		})),
		"rss_peak_mb": rssPeakMiB(),
	}
	res := &Result{Attempted: w.attempted(), Failed: w.failed(), Metrics: map[string]Metric{}}
	for _, d := range EndToEnd {
		res.Metrics[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	res.Correct = res.Failed == 0 && checkGoldens(o, in.quality(), info)
	if w.firstErr != nil {
		info.Notes = append(info.Notes, "first failure: "+w.firstErr.Error())
	}
	return res, nil
}

// checkGoldens compares quality values against the spec's floors.
func checkGoldens(o Options, quality map[string]float64, info *Info) bool {
	if o.Spec.Name != "full" {
		return true
	}
	ok := true
	for _, d := range PerLayer {
		floor, gated := goldens[o.Workload][d.Name]
		if got, has := quality[d.Name]; gated && has && got < floor {
			info.Notes = append(info.Notes, fmt.Sprintf("%s = %.4f is below its golden floor %.4f", d.Name, got, floor))
			ok = false
		}
	}
	return ok
}

func runTraced(ctx context.Context, o Options, e env, order func(int) []int, info *Info) (*Result, error) {
	// Untraced third of the window: the base of trace.overhead_ratio.
	in0, ord, err := setUp(ctx, o.Workload, e, order)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	w0 := runWindow(ctx, in0, ord, nil, o.Seconds/3)
	in0.close()
	if w0.firstErr != nil {
		return nil, fmt.Errorf("untraced window: %w", w0.firstErr)
	}

	// Traced two thirds, on a fresh stack with the wrappers installed.
	tr := trace.New()
	e.tr = tr
	in, ord, err := setUp(ctx, o.Workload, e, order)
	if err != nil {
		return nil, err
	}
	defer in.close()
	tr.Reset() // drop the warm-up's spans
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cache0 := cacheStats(in)
	coal0 := int64(0)
	if in.coalesced != nil {
		coal0 = in.coalesced()
	}
	req0, failed0 := replicaTraffic(in)
	w := runWindow(ctx, in, ord, tr, o.Seconds*2/3)
	runtime.ReadMemStats(&ms1)
	info.Passes, info.OpsPerPass = len(w.passes), in.ops()

	spans := tr.Spans()
	sum := trace.Analyze(spans)
	vals := map[string]float64{}
	layerMetrics(vals, o.Workload, sum, tr)
	ops := float64(w.attempted())
	vals["synth.fixture_build_s"] = e.fx.BuildS
	vals["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	vals["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	vals["proc.goroutines_peak"] = float64(w.goroutines)
	vals["trace.overhead_ratio"] = opsPerSec(w) / opsPerSec(w0)
	vals["trace.spans"] = float64(sum.Spans)
	vals["trace.misparented_spans"] = float64(sum.Misparented)
	if c1 := cacheStats(in); c1.Hits+c1.Misses > cache0.Hits+cache0.Misses {
		vals["endpoint.cache_hit_ratio"] = float64(c1.Hits-cache0.Hits) / float64(c1.Hits+c1.Misses-cache0.Hits-cache0.Misses)
	}
	if in.coalesced != nil {
		vals["endpoint.coalesced_per_op"] = float64(in.coalesced()-coal0) / ops
	}
	if in.admission != nil {
		vals["endpoint.admission_shed"] = float64(in.admission.AdmissionStats().Shed())
	}
	if req, failed := replicaTraffic(in); req > req0 {
		// every call ends in one successful attempt, so attempts minus
		// failed ones counts calls
		req, failed = req-req0, failed-failed0
		vals["cluster.attempts_per_call"] = div(int64(req), int64(req-failed))
		vals["cluster.failed_attempts"] = float64(failed)
	}
	quality := in.quality()
	for k, v := range quality {
		vals[k] = v
	}
	if err := replayRungs(vals, in, tr, e); err != nil {
		return nil, fmt.Errorf("replay rungs: %w", err)
	}
	quality["candidates.recall_at_k"] = vals["candidates.recall_at_k"]

	if o.TraceOut != "" {
		if err := writeTrace(o.TraceOut, info, tr, spans); err != nil {
			return nil, err
		}
	}
	res := &Result{Attempted: w.attempted(), Failed: w.failed(), Metrics: map[string]Metric{}}
	for _, d := range PerLayer {
		res.Metrics[d.Name] = Metric{Value: vals[d.Name], Unit: d.Unit}
	}
	res.Correct = res.Failed == 0 && checkGoldens(o, quality, info) && checkTrace(o.Workload, sum, w0, w, info)
	if w.firstErr != nil {
		info.Notes = append(info.Notes, "first failure: "+w.firstErr.Error())
	}
	if r := vals["trace.overhead_ratio"]; r < 0.8 {
		info.Notes = append(info.Notes, fmt.Sprintf("trace.overhead_ratio %.2f is below 0.8: per-layer times are inflated by tracing", r))
	}
	return res, nil
}

// checkTrace fails a traced run whose per-layer numbers would describe
// something other than the program the untraced run measured. The same
// conditions are asserted by this module's tests; they are repeated
// here because the repository's own test run does not reach into this
// module, while every benchmark run comes through here.
func checkTrace(workload string, sum *trace.Summary, untraced, traced *window, info *Info) bool {
	ok := true
	fail := func(format string, args ...any) {
		info.Notes = append(info.Notes, fmt.Sprintf(format, args...))
		ok = false
	}
	if sum.Misparented > 0 {
		fail("%d of %d spans hang outside their op or under the wrong layer: a span header or a context was lost, and the time they cover is booked to the wrong layer", sum.Misparented, sum.Spans)
	}
	if n := sum.ProbesByClass[trace.ClassOther]; n > 0 {
		fail("%d top-level probes match none of the aligner's templates: bench/trace's copies of the templates have drifted from the program", n)
	}
	// Batch alignment races its own cache and coalescer, so its query
	// count is not exact from pass to pass; the others' is.
	if u, t := untraced.passes[0].queries, traced.passes[0].queries; workload != BatchTopKScale && u != t {
		fail("a pass ran %d queries untraced but %d traced: the wrappers changed what the program does", u, t)
	}
	return ok
}

// replicaTraffic sums the attempts, and the failed ones among them, that
// the workload's replica sets count themselves.
func replicaTraffic(in *instance) (requests, failed uint64) {
	for _, set := range in.replicas {
		for _, st := range set.Status() {
			requests += st.Requests
			failed += st.Errors
		}
	}
	return
}

func cacheStats(in *instance) (c endpoint.CacheStats) {
	for _, ca := range in.caches {
		s := ca.CacheStats()
		c.Hits += s.Hits
		c.Misses += s.Misses
	}
	return
}

func div(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics maps the span aggregates onto the declared per-layer
// metric names. Which layer plays which role depends on the stack:
// LayerTop is the shard group on onthefly_http3 and the
// Coalescing(Caching(·)) stack on batch_topk_scale.
func layerMetrics(vals map[string]float64, workload string, sum *trace.Summary, tr *trace.Tracer) {
	L := &sum.Layers
	us := func(ns, n int64) float64 { return div(ns, n) / 1e3 }
	top, client := &L[trace.LayerTop], &L[trace.LayerClient]
	transport, handler, served, local := &L[trace.LayerTransport], &L[trace.LayerHandler], &L[trace.LayerServed], &L[trace.LayerLocal]

	vals["core.self_ms_per_op"] = div(L[trace.LayerOp].SelfNS, sum.Ops) / 1e6
	vals["core.probe_wait_share"] = div(sum.ProbeUnionNS, sum.OpWallNS)
	vals["core.parallel_overlap"] = div(sum.ProbeDurNS, sum.ProbeUnionNS)
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		vals["core.probes_per_op."+c.String()] = div(sum.ProbesByClass[c], sum.Ops)
	}
	vals["endpoint.local_us_per_query"] = us(local.DurNS, local.Spans)

	switch workload {
	case OnTheFlyHTTP3:
		// The group's children are its Client calls: the replica sets in
		// between take no wrapper, so the group's self time is shard.Group
		// plus cluster.Replicas until the cluster rung takes its part out.
		vals["shard.fanout_per_query"] = div(top.Children, top.Spans)
		vals["shard.merge_self_us_per_query"] = us(top.SelfNS, top.Spans)
		vals["shard.rows_pulled_per_row_out"] = div(top.ChildRows, top.Rows)
		vals["shard.straggler_us_per_query"] = us(top.StragglerNS, top.Fanned)
		vals["op.wall_share.federation"] = div(top.WallNS, sum.OpWallNS)
	case BatchTopKScale:
		vals["endpoint.decorator_self_us_per_query"] = us(top.SelfNS, top.Spans)
		vals["op.wall_share.decorators"] = div(top.WallNS, sum.OpWallNS)
	case ServeHTTPClosed:
		vals["endpoint.admission_self_us_per_req"] = us(served.SelfNS, served.Spans)
		vals["op.wall_share.decorators"] = div(served.WallNS, sum.OpWallNS)
	}
	vals["endpoint.http_client_self_us_per_req"] = us(client.SelfNS, client.Spans)
	vals["endpoint.http_ttfb_us_per_req"] = us(sum.TTFBNS, transport.Spans)
	vals["endpoint.http_body_read_us_per_req"] = us(sum.BodyNS, transport.Spans)
	dialed, reused := tr.Conns()
	vals["endpoint.http_conns_dialed"] = float64(dialed)
	vals["endpoint.http_conn_reuse_ratio"] = div(reused, dialed+reused)
	vals["endpoint.wire_req_bytes_per_req"] = div(sum.ReqBytes, transport.Spans)
	vals["endpoint.wire_resp_bytes_per_row"] = div(sum.RespBytes, client.Rows)
	vals["endpoint.wire_flushes_per_req"] = div(sum.Flushes, handler.Spans)
	vals["endpoint.server_handler_us_per_req"] = us(handler.DurNS, handler.Spans)
	vals["endpoint.server_self_us_per_req"] = us(handler.SelfNS, handler.Spans)
	vals["endpoint.server_exec_us_per_req"] = us(handler.DurNS-handler.SelfNS, handler.Spans)
	// Streams are opened by whoever consumes rows: the Client layer
	// when there is one, the Local otherwise.
	if client.Streams > 0 {
		vals["endpoint.early_close_ratio"] = div(client.Early, client.Streams)
	} else {
		vals["endpoint.early_close_ratio"] = div(local.Early, local.Streams)
	}

	vals["op.wall_share.core"] = div(L[trace.LayerOp].WallNS, sum.OpWallNS)
	vals["op.wall_share.client"] = div(client.WallNS, sum.OpWallNS)
	vals["op.wall_share.wire"] = div(transport.WallNS, sum.OpWallNS)
	vals["op.wall_share.server"] = div(handler.WallNS, sum.OpWallNS)
	vals["op.wall_share.local"] = div(local.WallNS, sum.OpWallNS)
}

// writeTrace stores the span log: the run's conditions, the layer and
// class names the numeric codes index, and the spans themselves.
func writeTrace(path string, info *Info, tr *trace.Tracer, spans []trace.Span) error {
	var layers, classes []string
	for l := trace.Layer(0); l < trace.NumLayers; l++ {
		layers = append(layers, l.String())
	}
	for c := trace.Class(0); c < trace.NumClasses; c++ {
		classes = append(classes, c.String())
	}
	done := spans[:0:0]
	for _, s := range spans {
		if s.Layer < trace.NumLayers {
			done = append(done, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"info": info, "layers": layers, "classes": classes, "spans": done})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
