// Package trace records spans at SOFYA's layer boundaries from outside
// the program: benchmark-owned wrappers around endpoint.Endpoint values,
// http.RoundTrippers and http.Handlers note (layer, start, end, parent,
// op) in memory, and the analysis in this package turns them into
// per-layer self times. Nothing under sofya/internal knows it is being
// traced; a nil *Tracer turns every wrapper constructor into the
// identity, so the untraced run executes the bare program.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"sofya/internal/sparql"
)

// Layer names the boundary a span was recorded at. Layers are declared
// outermost first: along one op, a span's children always belong to a
// later layer.
type Layer uint8

const (
	// LayerOp is one benchmark operation (an aligned relation, a batch
	// call, a served probe).
	LayerOp Layer = iota
	// LayerTop is the endpoint the aligner calls when something sits
	// between it and the Local: a cluster.Group (the shard federation
	// with its replica sets) or a decorator stack.
	LayerTop
	// LayerClient is an endpoint.Client.
	LayerClient
	// LayerTransport is the http.RoundTripper under a Client: send to
	// response-body EOF or close.
	LayerTransport
	// LayerHandler is the server-side http.Handler.
	LayerHandler
	// LayerServed is the endpoint a Server calls when it is decorated
	// (Admission); undecorated servers call the LayerLocal wrapper.
	LayerServed
	// LayerLocal is an endpoint.Local.
	LayerLocal
	NumLayers
)

var layerNames = [NumLayers]string{"op", "top", "client", "transport", "handler", "served", "local"}

func (l Layer) String() string { return layerNames[l] }

// Class is the probe shape of a prepared template, by its source text.
type Class uint8

const (
	ClassOther Class = iota
	ClassSample
	ClassObjects
	ClassOverlap
	ClassBetween
	ClassLiterals
	NumClasses
)

var classNames = [NumClasses]string{"other", "sample", "objects", "overlap", "between", "literals"}

func (c Class) String() string { return classNames[c] }

// Span is one recorded interval. Times are nanoseconds since the
// tracer's epoch.
type Span struct {
	ID     int32 `json:"id"`
	Parent int32 `json:"parent"` // span that caused this one; -1 for ops
	Op     int32 `json:"op"`     // id of the op span this belongs to; -1 outside any op
	Layer  Layer `json:"layer"`
	Class  Class `json:"class"`
	Start  int64 `json:"start"`
	// Mid is the transport's response-header time (time to first byte);
	// zero elsewhere.
	Mid int64 `json:"mid,omitempty"`
	End int64 `json:"end"`
	// Rows counts rows that crossed the boundary (drained results and
	// rows pulled from streams).
	Rows int32 `json:"rows,omitempty"`
	// Stream marks a streamed execution; Early one the caller closed
	// before exhaustion.
	Stream bool `json:"stream,omitempty"`
	Early  bool `json:"early,omitempty"`
	// ReqBytes, RespBytes and Flushes are wire counts: request and
	// response body bytes at the transport, flushes at the handler.
	ReqBytes  int32 `json:"req_bytes,omitempty"`
	RespBytes int32 `json:"resp_bytes,omitempty"`
	Flushes   int32 `json:"flushes,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Probe is one execution seen at a recording boundary, kept so the
// replay rungs can run the same work directly against sparql and kb.
type Probe struct {
	// Endpoint is the Name() of the endpoint that executed it.
	Endpoint string
	// Template indexes Tracer.Templates.
	Template int
	Args     []sparql.Arg
}

// Template is a distinct prepared template (or query text, with no
// parameters) seen at a recording boundary.
type Template struct {
	Source string
	Params []string
	Class  Class
}

// maxProbes bounds the replay log: the rungs need a sample of the
// traffic, not all of it.
const maxProbes = 50000

// Tracer collects spans and probe logs. All methods are safe for
// concurrent use. A nil Tracer records nothing and its wrapper
// constructors return their argument unchanged.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	// open counts spans begun and not yet recorded.
	open atomic.Int32
	// curOp is the op that ctx-less calls attach to: the aligner's
	// AlignRelation takes no context, and its callers run one op at a
	// time, so the op in flight is unambiguous.
	curOp atomic.Int32

	mu    sync.Mutex
	spans []Span

	pmu       sync.Mutex
	templates []Template
	tmplIndex map[string]int
	// topProbes logs executions whose parent is an op (what the aligner
	// asked for), localProbes those at LayerLocal (what the engines ran).
	topProbes   []Probe
	localProbes []Probe

	// transport-level connection counters (httptrace.GotConn)
	connsDialed atomic.Int64
	connsReused atomic.Int64
}

// New returns an empty tracer whose epoch is now.
func New() *Tracer {
	t := &Tracer{epoch: time.Now(), tmplIndex: map[string]int{}}
	t.curOp.Store(-1)
	return t
}

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// ref is what a context carries: the innermost open span and its op.
type ref struct{ span, op int32 }

type ctxKey struct{}

func (t *Tracer) refOf(ctx context.Context) ref {
	if r, ok := ctx.Value(ctxKey{}).(ref); ok {
		return r
	}
	op := t.curOp.Load()
	return ref{span: op, op: op}
}

func withRef(ctx context.Context, r ref) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// begin starts a span under the context's innermost span and returns it
// (not yet recorded) with the context its children should see.
func (t *Tracer) begin(ctx context.Context, layer Layer, class Class) (*Span, context.Context) {
	t.open.Add(1)
	parent := t.refOf(ctx)
	s := &Span{ID: t.nextID.Add(1) - 1, Parent: parent.span, Op: parent.op, Layer: layer, Class: class, Start: t.now()}
	return s, withRef(ctx, ref{span: s.ID, op: parent.op})
}

// close stamps the end time and records the span.
func (t *Tracer) close(s *Span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
	t.open.Add(-1)
}

// settle waits, up to a second, for the spans still open to be recorded.
// A server-side span ends a moment after the client has read the last
// byte of its response, so right after an op returns its handler span
// may still be open; anything open for longer than that is stuck.
func (t *Tracer) settle() {
	for deadline := time.Now().Add(time.Second); t.open.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}

// StartOp opens an op span and makes it the op that ctx-less endpoint
// calls attach to. The returned context carries the op for callers that
// do pass one; end records the span.
func (t *Tracer) StartOp(ctx context.Context) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	t.open.Add(1)
	s := &Span{ID: t.nextID.Add(1) - 1, Parent: -1, Layer: LayerOp, Start: t.now()}
	s.Op = s.ID
	t.curOp.Store(s.ID)
	return withRef(ctx, ref{span: s.ID, op: s.ID}), func() {
		t.curOp.CompareAndSwap(s.ID, -1)
		t.close(s)
	}
}

// Reset drops everything recorded so far (the warm-up's spans and
// probes), after the spans still open have settled. Span IDs keep
// counting up; no op may be in flight.
func (t *Tracer) Reset() {
	t.settle()
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
	t.pmu.Lock()
	t.templates, t.tmplIndex = nil, map[string]int{}
	t.topProbes, t.localProbes = nil, nil
	t.pmu.Unlock()
	t.connsDialed.Store(0)
	t.connsReused.Store(0)
}

// Spans returns the recorded spans indexed by ID, after the spans still
// open have settled. One that stays open leaves a hole whose Layer is
// NumLayers; the analysis skips it and counts its children as
// misparented.
func (t *Tracer) Spans() []Span {
	t.settle()
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, t.nextID.Load())
	for i := range out {
		out[i] = Span{ID: int32(i), Parent: -1, Op: -1, Layer: NumLayers}
	}
	for _, s := range t.spans {
		out[s.ID] = s
	}
	return out
}

// Templates returns the distinct templates seen, indexed by
// Probe.Template.
func (t *Tracer) Templates() []Template {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	return append([]Template(nil), t.templates...)
}

// TopProbes returns the executions logged at the outermost endpoint
// boundary (what the aligner asked for).
func (t *Tracer) TopProbes() []Probe {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	return append([]Probe(nil), t.topProbes...)
}

// LocalProbes returns the executions logged at the Local boundary (what
// the engines were asked to run).
func (t *Tracer) LocalProbes() []Probe {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	return append([]Probe(nil), t.localProbes...)
}

// Conns reports connections dialed and reused by traced transports.
func (t *Tracer) Conns() (dialed, reused int64) {
	return t.connsDialed.Load(), t.connsReused.Load()
}

// template interns a template; -1 once the probe logs are full and the
// template is new (its executions would not be logged anyway).
func (t *Tracer) template(source string, params []string) int {
	key := source
	for _, p := range params {
		key += "\x00" + p
	}
	t.pmu.Lock()
	defer t.pmu.Unlock()
	if i, ok := t.tmplIndex[key]; ok {
		return i
	}
	if len(t.localProbes) >= maxProbes && len(t.topProbes) >= maxProbes {
		return -1
	}
	t.templates = append(t.templates, Template{Source: source, Params: append([]string(nil), params...), Class: Classify(source)})
	t.tmplIndex[key] = len(t.templates) - 1
	return len(t.templates) - 1
}

func (t *Tracer) logProbe(outermost bool, layer Layer, p Probe) {
	if p.Template < 0 || (!outermost && layer != LayerLocal) {
		return
	}
	t.pmu.Lock()
	if outermost && len(t.topProbes) < maxProbes {
		t.topProbes = append(t.topProbes, p)
	}
	if layer == LayerLocal && len(t.localProbes) < maxProbes {
		t.localProbes = append(t.localProbes, p)
	}
	t.pmu.Unlock()
}
