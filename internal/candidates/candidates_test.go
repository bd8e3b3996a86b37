package candidates

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"weak"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// testBed wires a synth world into the pieces a candidate index needs:
// the yago side is the source (K), the dbp side the indexed target.
type testBed struct {
	world  *synth.World
	source *endpoint.Local
	target *endpoint.Local
	links  sampling.LinkView
	rels   []string
}

func newBed(t testing.TB, spec synth.Spec) *testBed {
	t.Helper()
	w := synth.Generate(spec)
	b := &testBed{
		world:  w,
		source: endpoint.NewLocal(w.Yago, 7),
		target: endpoint.NewLocal(w.Dbp, 11),
		links:  sampling.LinkView{Links: w.Links, KIsA: true},
	}
	rels, err := Relations(b.target)
	if err != nil {
		t.Fatalf("inventory: %v", err)
	}
	b.rels = rels
	return b
}

func (b *testBed) build(t testing.TB, opt Options) (*Index, *Prober) {
	t.Helper()
	ix, err := Build(b.target, b.rels, b.links, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pr, err := NewProber(ix, b.source)
	if err != nil {
		t.Fatalf("NewProber: %v", err)
	}
	return ix, pr
}

func TestRelationsInventoryMatchesReport(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	want := map[string]bool{}
	for _, iri := range b.world.Report.DbpRelations {
		want[iri] = true
	}
	if len(b.rels) != len(want) {
		t.Fatalf("inventory holds %d relations, report %d", len(b.rels), len(want))
	}
	for _, iri := range b.rels {
		if !want[iri] {
			t.Errorf("inventory relation %q not in report", iri)
		}
	}
	for i := 1; i < len(b.rels); i++ {
		if b.rels[i-1] >= b.rels[i] {
			t.Fatalf("inventory not sorted at %d", i)
		}
	}
}

func TestLocalName(t *testing.T) {
	cases := map[string]string{
		"http://dbpedia.org/property/birthPlace": "birthPlace",
		"http://example.org/ns#created":          "created",
		"plain":                                  "plain",
		"":                                       "",
	}
	for iri, want := range cases {
		if got := LocalName(iri); got != want {
			t.Errorf("LocalName(%q) = %q, want %q", iri, got, want)
		}
	}
}

func TestOptionsNormalized(t *testing.T) {
	o := Options{}.normalized()
	if o.SampleSize <= 0 || o.Hashes <= 0 || o.Bands <= 0 || o.GramN <= 0 {
		t.Fatalf("zero options not defaulted: %+v", o)
	}
	if o.Hashes%o.Bands != 0 {
		t.Fatalf("hashes %d not divisible by bands %d", o.Hashes, o.Bands)
	}
	o = Options{Hashes: 10, Bands: 16}.normalized()
	if o.Bands != 10 || o.Hashes != 10 {
		t.Fatalf("bands not clamped to hashes: %+v", o)
	}
}

func TestRecallHelper(t *testing.T) {
	mk := func(rels ...string) []Candidate {
		out := make([]Candidate, len(rels))
		for i, r := range rels {
			out[i] = Candidate{Rel: r}
		}
		return out
	}
	if got := Recall(mk("a", "b"), mk()); got != 1 {
		t.Errorf("empty exact recall = %v, want 1", got)
	}
	if got := Recall(mk("a", "b"), mk("a", "c")); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if got := Recall(mk(), mk("a")); got != 0 {
		t.Errorf("recall = %v, want 0", got)
	}
}

// TestNameScoresBitwiseIdentical pins the determinism invariant: the
// inverted accumulation and the exact merge must produce the same
// floats, so pruning changes which relations are scored but never what
// a scored relation's name score is.
func TestNameScoresBitwiseIdentical(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	_, pr := b.build(t, Options{})
	for _, r := range b.world.Report.YagoRelations {
		approx, err := pr.TopK(r, 0)
		if err != nil {
			t.Fatalf("TopK(%s): %v", r, err)
		}
		exact, err := pr.ExactTopK(r, 0)
		if err != nil {
			t.Fatalf("ExactTopK(%s): %v", r, err)
		}
		names := map[string]float64{}
		for _, c := range exact {
			names[c.Rel] = c.Name
		}
		for _, c := range approx {
			if want, ok := names[c.Rel]; ok && c.Name != want {
				t.Fatalf("name score of %s for query %s: inverted %v != exact %v",
					c.Rel, r, c.Name, want)
			}
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	_, pr1 := b.build(t, Options{})
	b2 := newBed(t, synth.TinySpec())
	_, pr2 := b2.build(t, Options{})
	for _, r := range b.world.Report.YagoRelations {
		c1, err1 := pr1.TopK(r, 10)
		c2, err2 := pr2.TopK(r, 10)
		if err1 != nil || err2 != nil {
			t.Fatalf("TopK errors: %v / %v", err1, err2)
		}
		if len(c1) != len(c2) {
			t.Fatalf("TopK(%s) lengths differ: %d vs %d", r, len(c1), len(c2))
		}
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("TopK(%s)[%d] differs: %+v vs %+v", r, i, c1[i], c2[i])
			}
		}
	}
}

// TestTopKRecallAgainstExact measures the pruned candidate set against
// the exact all-pairs scorer. On a tiny world the exact top-k tail is
// dominated by incidental entity-pool overlap (near-zero-score
// relations sharing neither a name gram nor enough extension to
// collide in a band), so set recall is a loose canary here; the
// score-mass recall shows the pruned pool keeps what carries signal.
// The alignment-level ≥0.95 recall claim is checked in
// internal/experiments on scale worlds.
func TestTopKRecallAgainstExact(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	_, pr := b.build(t, Options{})
	const k = 15
	total, mass := 0.0, 0.0
	for _, r := range b.world.Report.YagoRelations {
		approx, err := pr.TopK(r, k)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		exact, err := pr.ExactTopK(r, k)
		if err != nil {
			t.Fatalf("ExactTopK: %v", err)
		}
		total += Recall(approx, exact)
		mass += ScoreRecall(approx, exact)
	}
	n := float64(len(b.world.Report.YagoRelations))
	meanSet, meanMass := total/n, mass/n
	if meanSet < 0.6 {
		t.Errorf("mean candidate set recall %.3f < 0.6", meanSet)
	}
	if meanMass < 0.9 {
		t.Errorf("mean candidate score-mass recall %.3f < 0.9", meanMass)
	}
	t.Logf("k=%d: set recall %.3f, score-mass recall %.3f", k, meanSet, meanMass)
}

// TestTopKFindsGoldAlignments checks end-use quality: for yago
// relations with a gold dbp equivalent, the equivalent should rank in
// the top-k candidates for nearly all of them.
func TestTopKFindsGoldAlignments(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	_, pr := b.build(t, Options{})
	const k = 20
	equiv := map[string]string{}
	for _, p := range b.world.Truth.YagoToDbp {
		if p.Equivalent {
			equiv[p.Body] = p.Head
		}
	}
	hits, want := 0, 0
	for _, r := range b.world.Report.YagoRelations {
		gold, ok := equiv[r]
		if !ok {
			continue
		}
		want++
		cands, err := pr.TopK(r, k)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		for _, c := range cands {
			if c.Rel == gold {
				hits++
				break
			}
		}
	}
	if want == 0 {
		t.Fatal("world has no gold equivalences")
	}
	if frac := float64(hits) / float64(want); frac < 0.85 {
		t.Fatalf("gold equivalent reached top-%d for only %.2f of %d relations", k, frac, want)
	}
}

// hookEndpoint routes every sampling probe prepared on it through
// probe, which gets the real execution as next.
type hookEndpoint struct {
	endpoint.Endpoint
	probe func(next func() (*sparql.Result, error)) (*sparql.Result, error)
}

func (h *hookEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := h.Endpoint.Prepare(tmpl, params...)
	if err != nil {
		return nil, err
	}
	return &hookPrepared{PreparedQuery: pq, probe: h.probe}, nil
}

type hookPrepared struct {
	endpoint.PreparedQuery
	probe func(next func() (*sparql.Result, error)) (*sparql.Result, error)
}

func (h *hookPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	return h.probe(func() (*sparql.Result, error) { return h.PreparedQuery.SelectCtx(ctx, args...) })
}

// TestTopKConcurrent pins the Prober's concurrency contract: any number
// of goroutines get exactly the serial results from one Prober, and no
// call holds anything another call needs while its sampling probe is
// out at the source endpoint.
func TestTopKConcurrent(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	ix, pr := b.build(t, Options{})
	rels := b.world.Report.YagoRelations
	ref := make([][]Candidate, len(rels))
	for i, r := range rels {
		c, err := pr.TopK(r, 10)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		ref[i] = c
	}

	t.Run("serial results", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, r := range rels {
					c, err := pr.TopK(r, 10)
					if err != nil {
						t.Errorf("concurrent TopK: %v", err)
						return
					}
					if !reflect.DeepEqual(c, ref[i]) {
						t.Errorf("concurrent TopK(%s) diverged", r)
						return
					}
				}
			}()
		}
		wg.Wait()
	})

	// Two calls must both be inside the sampling probe before either is
	// let through: with a lock held across the probe the second never
	// arrives.
	t.Run("both inside the probe", func(t *testing.T) {
		arrived := make(chan struct{})
		release := make(chan struct{})
		gated, err := NewProber(ix, &hookEndpoint{
			Endpoint: b.source,
			probe: func(next func() (*sparql.Result, error)) (*sparql.Result, error) {
				arrived <- struct{}{}
				<-release
				return next()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := gated.TopK(rels[i], 10)
				if err != nil {
					t.Errorf("gated TopK: %v", err)
				} else if !reflect.DeepEqual(c, ref[i]) {
					t.Errorf("gated TopK(%s) diverged", rels[i])
				}
			}()
		}
		timeout := time.After(10 * time.Second)
		for i := 0; i < 2; i++ {
			select {
			case <-arrived:
			case <-timeout:
				close(release)
				t.Fatalf("only %d of 2 TopK calls reached the sampling probe: the other is waiting on the first", i)
			}
		}
		close(release)
		wg.Wait()
	})
}

// wordInventory names n relations with three-word local names over a
// 40-word vocabulary (a word is in at most 7.5 % of the names, so its
// grams stay under the stop cutoff and a probe scores thousands of
// relations at n = 20 000) and gives each a small random key set;
// relation 7 gets exactly keys.
func wordInventory(n int, keys []uint64) *Index {
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 40)
	for i := range words {
		w := make([]byte, 6)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(w)
	}
	ix := &Index{opt: Options{}.normalized(), rels: make([]string, n)}
	for i := range ix.rels {
		ix.rels[i] = "http://t/" + words[i%40] + words[i/40%40] + words[i/1600%40]
	}
	sort.Strings(ix.rels)
	ix.fp = Fingerprint(ix.rels, ix.opt)
	ix.buildNameIndex()
	sets := make([][]uint64, n)
	for i := range sets {
		for j := 0; j < 8; j++ {
			sets[i] = append(sets[i], uint64(rng.Intn(40*n)))
		}
		sets[i] = dedupSorted(sets[i])
	}
	sets[7] = keys
	ix.buildSigIndex(sets)
	return ix
}

// TestAllocCeilingProbeTopK pins what a TopK call may allocate once its
// prober's scratch is warm: the result slice and the query's name
// profile — nothing per touched relation, so the same on a 200- and a
// 20 000-relation inventory. The source endpoint answers from a canned
// sample, so its own allocations stay out of the count.
func TestAllocCeilingProbeTopK(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sample := &sparql.Result{Vars: []string{"x", "y"}}
	var keys []uint64
	for i := 0; i < 40; i++ {
		x, y := fmt.Sprintf("http://k/e%d", i), fmt.Sprintf("http://k/e%d", i+1)
		sample.Rows = append(sample.Rows, []rdf.Term{rdf.NewIRI(x), rdf.NewIRI(y)})
		keys = append(keys, subjectKey(x), objectKey(y))
	}
	keys = dedupSorted(keys)
	source := &hookEndpoint{
		Endpoint: endpoint.NewLocal(kb.New("empty"), 1),
		probe:    func(func() (*sparql.Result, error)) (*sparql.Result, error) { return sample, nil },
	}
	const k = 16
	allocs := func(n int) (perCall float64, touched int) {
		ix := wordInventory(n, keys)
		pr, err := NewProber(ix, source)
		if err != nil {
			t.Fatal(err)
		}
		query := ix.rels[n/2]
		run := func() {
			if c, err := pr.TopK(query, k); err != nil || len(c) == 0 || len(c) > k {
				t.Fatalf("TopK: %d candidates, %v", len(c), err)
			}
		}
		run() // size the scratch
		all, err := pr.TopK(query, 0)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, run), len(all)
	}
	small, touchedSmall := allocs(200)
	large, touchedLarge := allocs(20_000)
	if touchedLarge < 10*k {
		t.Fatalf("the probe scores only %d relations of 20 000: nothing for the ceiling to bound", touchedLarge)
	}
	if small != large {
		t.Fatalf("%.0f allocs/call scoring %d relations of 200, %.0f scoring %d of 20 000", small, touchedSmall, large, touchedLarge)
	}
	// One result slice, the probe's argument list, and strsim's profile
	// of the 18-letter query name, which is most of it.
	if large > 32 {
		t.Fatalf("%.0f allocs/call, ceiling 32", large)
	}
	t.Logf("%.0f allocs/call (%d and %d relations scored)", large, touchedSmall, touchedLarge)
}

// TestProbersShareScratch: a new Prober over an index of the same size
// takes its accumulators from the scratch an earlier one left in the
// pool — a batch makes a Prober a pass — so even its first TopK
// allocates no inventory-length array: fewer bytes than one float64 a
// relation.
func TestProbersShareScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled values at random")
	}
	source := &hookEndpoint{
		Endpoint: endpoint.NewLocal(kb.New("empty"), 1),
		probe: func(func() (*sparql.Result, error)) (*sparql.Result, error) {
			return &sparql.Result{Vars: []string{"x", "y"}, Rows: [][]rdf.Term{{rdf.NewIRI("http://k/a"), rdf.NewIRI("http://k/b")}}}, nil
		},
	}
	const n = 20_000
	ix := wordInventory(n, []uint64{subjectKey("http://k/a"), objectKey("http://k/b")})
	query := ix.rels[n/2]
	firstCall := make([]uint64, 11) // bytes of each new prober's first TopK
	for i := range firstCall {
		pr, err := NewProber(ix, source)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := pr.TopK(query, 16)
		runtime.ReadMemStats(&after)
		if err != nil || len(c) == 0 {
			t.Fatalf("TopK: %d candidates, %v", len(c), err)
		}
		firstCall[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(firstCall[1:]) // the first prober of all may find the pool empty
	median := firstCall[1+len(firstCall[1:])/2]
	t.Logf("a new prober's first call over %d relations: %d bytes (median of %d)", n, median, len(firstCall)-1)
	if median >= n*8 {
		t.Fatalf("a new prober's first call allocates %d bytes: it made its own accumulators (one array is %d)", median, n*8)
	}
}

// scaleBed caches one mid-size world + index for the benchmarks, so
// repeated bench invocations do not rebuild it per benchmark.
var scaleBed struct {
	once sync.Once
	bed  *testBed
	ix   *Index
	pr   *Prober
}

func benchBed(b *testing.B) (*testBed, *Index, *Prober) {
	scaleBed.once.Do(func() {
		bed := newBed(b, synth.ScaleSpec(4000))
		ix, pr := bed.build(b, Options{})
		scaleBed.bed, scaleBed.ix, scaleBed.pr = bed, ix, pr
	})
	return scaleBed.bed, scaleBed.ix, scaleBed.pr
}

// BenchmarkIndexBuild measures full index construction (name postings +
// signature sampling) per indexed relation count.
func BenchmarkIndexBuild(b *testing.B) {
	bed, _, _ := benchBed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(bed.target, bed.rels, bed.links, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeTopK measures one pruned candidate probe (sampling +
// inverted scoring + LSH lookup) against a 4000-relation inventory.
func BenchmarkProbeTopK(b *testing.B) {
	bed, _, pr := benchBed(b)
	rels := bed.world.Report.YagoRelations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.TopK(rels[i%len(rels)], 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactTopK is the all-pairs baseline probe on the same
// inventory — the cost pruning avoids.
func BenchmarkExactTopK(b *testing.B) {
	bed, _, pr := benchBed(b)
	rels := bed.world.Report.YagoRelations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.ExactTopK(rels[i%len(rels)], 20); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleLocalName() {
	fmt.Println(LocalName("http://dbpedia.org/property/birthPlace"))
	// Output: birthPlace
}

// TestProberReleasesItsIndex: an index dropped with its last prober is
// collected by the next collection. The prober's scratch pool, once
// used, stays on the runtime's list of pools for up to two collections;
// if the pool reached the index, a process that opens a new index while
// letting an old aligner go held both at once.
func TestProberReleasesItsIndex(t *testing.T) {
	b := newBed(t, synth.TinySpec())
	dropped := func() weak.Pointer[Index] {
		ix, pr := b.build(t, Options{})
		if _, err := pr.TopK(b.world.Report.YagoRelations[0], 4); err != nil {
			t.Fatal(err)
		}
		return weak.Make(ix)
	}()
	runtime.GC()
	if dropped.Value() != nil {
		t.Fatal("an index outlived its last prober by a collection")
	}
}
