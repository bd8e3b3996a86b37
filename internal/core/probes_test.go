package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/ilp"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// probeLog is what a recording endpoint saw: every execution that
// reached it, as "endpoint|call|template|arguments", the size of every
// group (StreamBatch), and where in calls each alignment began.
type probeLog struct {
	mu     sync.Mutex
	calls  []string
	groups []int
	starts []int
}

// mark notes that an alignment begins.
func (l *probeLog) mark() {
	l.mu.Lock()
	l.starts = append(l.starts, len(l.calls))
	l.mu.Unlock()
}

// perAlignment is the calls of each alignment, in the order they were
// seen; call it before digest, which sorts them.
func (l *probeLog) perAlignment() [][]string {
	out := make([][]string, len(l.starts))
	for i, start := range l.starts {
		end := len(l.calls)
		if i+1 < len(l.starts) {
			end = l.starts[i+1]
		}
		out[i] = l.calls[start:end]
	}
	return out
}

func (l *probeLog) add(name, call, tmpl string, args []sparql.Arg) {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = a.Key()
	}
	l.mu.Lock()
	l.calls = append(l.calls, name+"|"+call+"|"+tmpl+"|"+strings.Join(keys, " "))
	l.mu.Unlock()
}

// digest fingerprints the multiset of calls and the multiset of group
// sizes: what a pass asked, whatever the order its stages ran in.
func (l *probeLog) digest() (calls int, sum uint64) {
	sort.Strings(l.calls)
	sort.Ints(l.groups)
	h := fnv.New64a()
	fmt.Fprint(h, l.calls, l.groups)
	return len(l.calls), h.Sum64()
}

// recEndpoint records the probes an aligner sends through it. When
// batches is set its handles take StreamBatch — so a group is seen as the
// group it was sent as — by running the tuples one by one on the endpoint
// they wrap; otherwise they take every tuple as the single call it is.
type recEndpoint struct {
	endpoint.Endpoint
	log     *probeLog
	batches bool
}

func (e recEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	h := recHandle{PreparedQuery: pq, name: e.Name(), tmpl: tmpl, log: e.log}
	if e.batches {
		return recBatched{h}, err
	}
	return h, err
}

type recHandle struct {
	endpoint.PreparedQuery
	name, tmpl string
	log        *probeLog
}

func (h recHandle) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	h.log.add(h.name, "Stream", h.tmpl, args)
	return h.PreparedQuery.Stream(ctx, args...)
}

func (h recHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	h.log.add(h.name, "SelectCtx", h.tmpl, args)
	return h.PreparedQuery.SelectCtx(ctx, args...)
}

type recBatched struct{ recHandle }

// StreamBatch logs the group — its size, and each tuple — and opens it
// on the handle it wraps, which takes it tuple by tuple.
func (h recBatched) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	h.log.mu.Lock()
	h.log.groups = append(h.log.groups, len(argSets))
	h.log.mu.Unlock()
	for _, args := range argSets {
		h.log.add(h.name, "StreamBatch", h.tmpl, args)
	}
	return endpoint.StreamBatch(ctx, h.PreparedQuery, argSets)
}

// The relations of the paper world each direction aligns: d2yRelations
// of K = yago from K' = dbpedia, y2dRelations the other way.
var (
	d2yRelations = []string{"creatorOf", "directedBy", "producedBy", "bornYear"}
	y2dRelations = []string{"composerOf", "writerOf", "hasDirector", "hasProducer", "birthDate"}
)

// alignAll aligns every relation of the paper world, both directions,
// under UBSConfig through recording endpoints.
func alignAll(t *testing.T, parallelism int, batches bool) ([][]Alignment, *probeLog) {
	t.Helper()
	cfg := UBSConfig()
	cfg.Parallelism = parallelism
	return alignAllUnder(t, cfg, batches)
}

// alignAllUnder is alignAll under cfg.
func alignAllUnder(t *testing.T, cfg Config, batches bool) ([][]Alignment, *probeLog) {
	t.Helper()
	y, d, links := paperWorld()
	log := &probeLog{}
	ky := recEndpoint{endpoint.NewLocal(y, 11), log, batches}
	kd := recEndpoint{endpoint.NewLocal(d, 22), log, batches}
	d2y := New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	y2d := New(kd, ky, sampling.LinkView{Links: links, KIsA: false}, cfg)
	var out [][]Alignment
	for _, r := range d2yRelations {
		log.mark()
		als, err := d2y.AlignRelation(yNS + r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, als)
	}
	for _, r := range y2dRelations {
		log.mark()
		als, err := y2d.AlignRelation(dNS + r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, als)
	}
	return out, log
}

// TestProbesOnANonGroupingEndpoint: against endpoints that do not group
// streams — Local, the decorators, a tracing wrapper — a pass issues the
// multiset of calls it issued before stages took ranges of items: a
// Stream where it streamed, a SelectCtx per tuple where it grouped. The
// digest was first recorded at commit 1af688c, with this file's
// recording endpoints and no other change: 649 calls, digest
// 0xc97a6004506c8e12. It was recorded again when each alignment began
// to ask every object question once (sampling.ObjectMemo): 558 calls,
// the 91 gone all repeated object fetches; digest 0xa71e214e672d8fa1.
// It was recorded once more when the head-sibling probes, which answer
// a row or two each, began to be drained whole: the same 558 calls and
// tuples, those probes now a SelectCtx each where they were a Stream;
// digest 0x19eadff330193d5f. It held unchanged when every probe began to
// leave through one dispatch (sampling's send); the split by probe class
// is pinned too. Against endpoints that do group, the alignments and the
// multiset of tuples are the same, and only the groups grow.
func TestProbesOnANonGroupingEndpoint(t *testing.T) {
	const wantCalls, wantDigest = 558, uint64(0x19eadff330193d5f)
	wantSplit := map[string]int{
		"SelectCtx objects": 293, "SelectCtx between": 194, "SelectCtx literals": 20,
		"Stream sample": 31, "Stream overlap": 20,
	}
	class := map[string]string{}
	for _, p := range sampling.ProbeTemplates() {
		class[p.Source] = p.Class
	}
	var ref [][]Alignment
	var tuples []string
	for _, parallelism := range []int{1, 4} {
		als, log := alignAll(t, parallelism, false)
		split := map[string]int{}
		for _, c := range log.calls {
			f := strings.SplitN(c, "|", 4)
			split[f[1]+" "+class[f[2]]]++
		}
		if !reflect.DeepEqual(split, wantSplit) {
			t.Errorf("parallelism %d: calls by kind and probe class %v, want %v", parallelism, split, wantSplit)
		}
		calls, digest := log.digest()
		t.Logf("parallelism %d: %d calls in %d groups, digest %#x", parallelism, calls, len(log.groups), digest)
		if calls != wantCalls || digest != wantDigest || len(log.groups) != 0 {
			t.Errorf("parallelism %d: %d calls in %d groups, digest %#x; want %d in none, digest %#x",
				parallelism, calls, len(log.groups), digest, wantCalls, wantDigest)
		}
		if ref == nil {
			ref, tuples = als, withoutCalls(log.calls)
		} else if !reflect.DeepEqual(als, ref) {
			t.Errorf("parallelism %d: alignments differ", parallelism)
		}
	}
	als, log := alignAll(t, 4, true)
	log.digest()
	if got := withoutCalls(log.calls); !reflect.DeepEqual(als, ref) || !reflect.DeepEqual(got, tuples) || len(log.groups) == 0 {
		t.Errorf("against endpoints that group streams: alignments equal %v, %d tuples for %d in %d groups",
			reflect.DeepEqual(als, ref), len(got), len(tuples), len(log.groups))
	}
}

// TestThresholdOnlySetsAcceptance: under DefaultConfig with the
// equivalence check off, the measure and τ decide each alignment's
// Confidence and Accepted and nothing else — the probes sent and the
// rest of every alignment are the same at any (measure, τ). Table 1
// and E3 (internal/experiments) run each grid point through the aligner
// and read one grid run's query counts for E4's baseline rows on the
// strength of it. It does not hold under UBSConfig: there τ picks the
// provisional set whose sibling pairs the contradiction search probes.
func TestThresholdOnlySetsAcceptance(t *testing.T) {
	var (
		ref        [][]Alignment
		refCalls   int
		refDigest  uint64
		acceptedAt = map[string]int{}
	)
	for _, p := range []struct {
		measure ilp.Measure
		tau     float64
	}{{ilp.PCA, 0}, {ilp.PCA, 0.9}, {ilp.CWA, 0.6}} {
		name := fmt.Sprintf("%s τ=%.2f", p.measure, p.tau)
		cfg := DefaultConfig()
		cfg.CheckEquivalence = false
		cfg.Measure, cfg.Threshold = p.measure, p.tau
		als, log := alignAllUnder(t, cfg, false)
		calls, digest := log.digest()
		for _, rel := range als {
			for i := range rel {
				if rel[i].Accepted {
					acceptedAt[name]++
				}
				rel[i].Confidence, rel[i].Accepted = 0, false
			}
			sort.Slice(rel, func(i, j int) bool { return rel[i].Rule.Body < rel[j].Rule.Body })
		}
		if ref == nil {
			ref, refCalls, refDigest = als, calls, digest
			continue
		}
		if calls != refCalls || digest != refDigest {
			t.Errorf("%s: %d calls, digest %#x; at pcaconf τ=0: %d, %#x", name, calls, digest, refCalls, refDigest)
		}
		if !reflect.DeepEqual(als, ref) {
			t.Errorf("%s: alignments differ from pcaconf τ=0 beyond Confidence and Accepted", name)
		}
	}
	// the grid points differ where they should: in what they accept
	if a, b, c := acceptedAt["pcaconf τ=0.00"], acceptedAt["pcaconf τ=0.90"], acceptedAt["cwaconf τ=0.60"]; a <= b || a <= c {
		t.Errorf("accepted at pcaconf τ=0 / τ=0.9 / cwaconf τ=0.6: %d / %d / %d; τ=0 should accept the most", a, b, c)
	}
}

// withoutCalls is a log's tuples, "endpoint|template|arguments", sorted:
// what was asked, whichever call asked it.
func withoutCalls(calls []string) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		name, rest, _ := strings.Cut(c, "|")
		_, rest, _ = strings.Cut(rest, "|")
		out[i] = name + "|" + rest
	}
	sort.Strings(out)
	return out
}

// TestAlignmentAsksEachObjectOnce: within one alignment no object
// question — (endpoint, TmplObjects, x, r) — reaches an endpoint twice,
// at any Parallelism, on the per-tuple path and on the grouped one. What
// the memo takes away is only repeats: each alignment asks the same set
// of distinct questions as before it, and the alignments are the ones
// recorded before it (at commit c872d42, with this file's recording
// endpoints: a pass there made 649 calls, 532 of them distinct within
// their alignment; it makes 558 now, the other 26 repeated probes of
// other templates).
func TestAlignmentAsksEachObjectOnce(t *testing.T) {
	const wantAlignments, wantAsked, wantDistinct = uint64(0xe5e6ccd2da7c90d2), uint64(0x311d23a4eefddc31), 532
	for _, parallelism := range []int{1, 4} {
		for _, batches := range []bool{false, true} {
			name := fmt.Sprintf("parallelism %d, grouped %v", parallelism, batches)
			als, log := alignAll(t, parallelism, batches)
			var asked []string // "alignment|endpoint|template|arguments", each once
			for i, calls := range log.perAlignment() {
				seen := map[string]bool{}
				for _, c := range withoutCalls(calls) {
					if seen[c] {
						if strings.Contains(c, "|"+sampling.TmplObjects+"|") {
							t.Errorf("%s: alignment %d asks %s twice", name, i, c)
						}
						continue
					}
					seen[c] = true
					asked = append(asked, fmt.Sprint(i, "|", c))
				}
			}
			sort.Strings(asked)
			if got := fingerprint(asked); got != wantAsked || len(asked) != wantDistinct {
				t.Errorf("%s: %d distinct questions, digest %#x; want %d, %#x", name, len(asked), got, wantDistinct, wantAsked)
			}
			if got := fingerprint(als); got != wantAlignments {
				t.Errorf("%s: alignments digest %#x, want %#x", name, got, wantAlignments)
			}
		}
	}
	t.Run("a failed fetch fails its waiter", objectFetchFailure)
}

// objectFetchFailure: a fetch that fails while another stage task of
// the alignment waits on its keys fails both tasks with the fetch's own
// error, and leaves no goroutine behind. The first task's fetch holds
// every key of the rule; the second samples the same subjects and is
// released into its wait as the first fails — or, some rounds, finds the
// failure already stored, which must read the same
// (flight.TestClaimsContract pins the waiting case on its own).
func objectFetchFailure(t *testing.T) {
	y, d, links := paperWorld()
	boom := errors.New("boom")
	rule := []sampling.Rule{{Body: dNS + "composerOf", Head: yNS + "creatorOf"}}
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ky := &failFirstObjects{Endpoint: endpoint.NewLocal(y, 11), err: boom, entered: make(chan struct{}), release: make(chan struct{})}
		kd := &secondSample{Endpoint: endpoint.NewLocal(d, 22), read: make(chan struct{})}
		a := New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, UBSConfig())
		memo := new(sampling.ObjectMemo)
		first, second := make(chan error, 1), make(chan error, 1)
		go func() { first <- a.val.SimpleEvidenceEach(context.Background(), memo, rule, 10) }()
		<-ky.entered
		go func() { second <- a.val.SimpleEvidenceEach(context.Background(), memo, rule, 10) }()
		<-kd.read
		close(ky.release)
		if errA, errB := <-first, <-second; !errors.Is(errA, boom) || errB != errA {
			t.Fatalf("round %d: errors %v and %v; want the fetch's, twice", round, errA, errB)
		}
	}
	waitGoroutines(t, before)
}

// failFirstObjects fails the first object fetch that reaches it, once
// released, and answers every other probe.
type failFirstObjects struct {
	endpoint.Endpoint
	err              error
	entered, release chan struct{}
	once             sync.Once
}

func (e *failFirstObjects) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	if tmpl == sampling.TmplObjects {
		return failFirstHandle{pq, e}, err
	}
	return pq, err
}

type failFirstHandle struct {
	endpoint.PreparedQuery
	e *failFirstObjects
}

func (h failFirstHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	first := false
	h.e.once.Do(func() { first = true })
	if !first {
		return h.PreparedQuery.SelectCtx(ctx, args...)
	}
	close(h.e.entered)
	<-h.e.release
	return nil, h.e.err
}

// secondSample closes read when the second sample stream opened on it
// is closed, its sample read.
type secondSample struct {
	endpoint.Endpoint
	read    chan struct{}
	streams atomic.Int32
}

func (e *secondSample) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	if tmpl == sampling.TmplSample {
		return secondSampleHandle{pq, e}, err
	}
	return pq, err
}

type secondSampleHandle struct {
	endpoint.PreparedQuery
	e *secondSample
}

func (h secondSampleHandle) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	rows, err := h.PreparedQuery.Stream(ctx, args...)
	if err != nil || h.e.streams.Add(1) != 2 {
		return rows, err
	}
	return closeSignal{rows, h.e.read}, nil
}

type closeSignal struct {
	endpoint.Rows
	closed chan struct{}
}

func (r closeSignal) Close() {
	r.Rows.Close()
	close(r.closed)
}

// TestProbeTemplatesCoverTheAligner: every template an aligner prepares —
// its own, its validators', its candidate prober's — is in
// sampling.ProbeTemplates, and every listed one is prepared.
func TestProbeTemplatesCoverTheAligner(t *testing.T) {
	listed := map[string]bool{}
	for _, pt := range sampling.ProbeTemplates() {
		listed[pt.Source] = true
	}
	if len(listed) != 5 {
		t.Fatalf("%d distinct templates listed, want 5", len(listed))
	}
	prepared := alignPreparing(t, 16)
	seen := map[string]bool{}
	for at := range prepared {
		seen[at.tmpl] = true
		if !listed[at.tmpl] {
			t.Errorf("the aligner prepares %q, which ProbeTemplates does not list", at.tmpl)
		}
	}
	for tmpl := range listed {
		if !seen[tmpl] {
			t.Errorf("ProbeTemplates lists %q, which the aligner never prepares", tmpl)
		}
	}
}

// TestAlignerPreparesEachProbeOnce: an aligner prepares each template it
// sends on an endpoint once — its validator's and its Flip's probes are
// one set of handles — nine in all: the five templates on K', all but
// the literal scan on K.
func TestAlignerPreparesEachProbeOnce(t *testing.T) {
	prepared := alignPreparing(t, 0)
	for at, n := range prepared {
		if n != 1 {
			t.Errorf("%s prepares %q %d times", at.endpoint, at.tmpl, n)
		}
	}
	if len(prepared) != 9 {
		t.Errorf("%d (endpoint, template) pairs prepared, want 9: %v", len(prepared), prepared)
	}
}

// TestAlignerReportsPrepareError: a probe an endpoint cannot prepare is
// the error of every alignment, before any candidate index is built.
func TestAlignerReportsPrepareError(t *testing.T) {
	y, d, links := paperWorld()
	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	a := New(endpoint.NewLocal(y, 11), refusing{endpoint.NewLocal(d, 22)}, sampling.LinkView{Links: links, KIsA: true}, cfg)
	if _, err := a.AlignRelation(yNS + "creatorOf"); !errors.Is(err, errRefused) {
		t.Errorf("AlignRelation: %v", err)
	}
	if _, err := a.AlignRelationWithin(context.Background(), yNS+"creatorOf", nil); !errors.Is(err, errRefused) {
		t.Errorf("AlignRelationWithin: %v", err)
	}
}

var errRefused = errors.New("refused")

type refusing struct{ endpoint.Endpoint }

func (refusing) Prepare(string, ...string) (endpoint.PreparedQuery, error) { return nil, errRefused }

// alignPreparing aligns creatorOf, directedBy and bornYear of the paper
// world under UBSConfig with the given CandidateTopK, and returns how many
// times each template was prepared on each endpoint.
func alignPreparing(t *testing.T, topK int) map[preparedAt]int {
	t.Helper()
	y, d, links := paperWorld()
	l := &prepareLog{n: map[preparedAt]int{}}
	cfg := UBSConfig()
	cfg.CandidateTopK = topK
	a := New(l.wrap(endpoint.NewLocal(y, 11)), l.wrap(endpoint.NewLocal(d, 22)), sampling.LinkView{Links: links, KIsA: true}, cfg)
	for _, r := range []string{"creatorOf", "directedBy", "bornYear"} {
		if _, err := a.AlignRelation(yNS + r); err != nil {
			t.Fatal(err)
		}
	}
	return l.n
}

// preparedAt is one template on one endpoint.
type preparedAt struct{ endpoint, tmpl string }

// prepareLog counts the templates prepared on the endpoints it wraps.
type prepareLog struct {
	mu sync.Mutex
	n  map[preparedAt]int
}

func (l *prepareLog) wrap(ep endpoint.Endpoint) endpoint.Endpoint { return preparing{ep, l} }

type preparing struct {
	endpoint.Endpoint
	log *prepareLog
}

func (e preparing) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	e.log.mu.Lock()
	e.log.n[preparedAt{e.Name(), tmpl}]++
	e.log.mu.Unlock()
	return e.Endpoint.Prepare(tmpl, params...)
}

// fingerprint hashes v's printed form; %v prints every float exactly.
func fingerprint(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}
