package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/sampling"
)

// d2yTarget returns the K'-side endpoint and link view of the paper
// world exactly as alignerD2Y's aligner sees them, for building sidecar
// indexes the aligner should accept.
func d2yTarget() (endpoint.Endpoint, sampling.LinkView) {
	_, d, links := paperWorld()
	return endpoint.NewLocal(d, 4), sampling.LinkView{Links: links, KIsA: true}
}

// TestIndexCacheConcurrentGet hammers one cache key from many
// goroutines (run under -race): every caller must receive the same
// index, and the build must run exactly once.
func TestIndexCacheConcurrentGet(t *testing.T) {
	target, links := d2yTarget()
	cache := NewIndexCache()

	const callers = 8
	got := make([]*candidates.Index, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix, err := cache.Get(context.Background(), target, links, "", candidates.Options{})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			got[i] = ix
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different index instance", i)
		}
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Built != 1 || s.Loaded != 0 {
		t.Fatalf("want exactly one building miss, got %+v", s)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
	if _, err := cache.Get(context.Background(), target, links, "", candidates.Options{}); err != nil {
		t.Fatalf("warm get: %v", err)
	}
	if s := cache.Stats(); s.Hits < 1 {
		t.Fatalf("warm get not served from memory: %+v", s)
	}
}

// TestAlignersShareIndexCache points two independent aligners at one
// IndexCache: the second aligner must reuse the first's index (one
// build total) and still produce the exact-mode output.
func TestAlignersShareIndexCache(t *testing.T) {
	exact, err := alignerD2Y(UBSConfig()).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("exact align: %v", err)
	}
	cache := NewIndexCache()
	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	cfg.CandidateIndexCache = cache
	for i := 0; i < 2; i++ {
		als, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
		if err != nil {
			t.Fatalf("aligner %d: %v", i, err)
		}
		if !reflect.DeepEqual(als, exact) {
			t.Fatalf("aligner %d output differs from exact run", i)
		}
	}
	s := cache.Stats()
	if s.Built != 1 {
		t.Fatalf("shared cache built %d indexes for one target, want 1 (%+v)", s.Built, s)
	}
	if s.Hits < 1 {
		t.Fatalf("second aligner did not hit the shared cache: %+v", s)
	}
}

// TestAlignerSidecarRestore writes a matching candidate-index sidecar
// and checks the aligner restores it instead of sampling — and that the
// restored index prunes identically to a freshly built one.
func TestAlignerSidecarRestore(t *testing.T) {
	target, links := d2yTarget()
	rels, err := candidates.Relations(target)
	if err != nil {
		t.Fatalf("relations: %v", err)
	}
	ix, err := candidates.Build(target, rels, links, candidates.Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	path := filepath.Join(t.TempDir(), "dbpedia-candidates.idx")
	if err := ix.WriteIndexFile(path); err != nil {
		t.Fatalf("write sidecar: %v", err)
	}

	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	built, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("built-index align: %v", err)
	}

	cache := NewIndexCache()
	cfg.CandidateIndexCache = cache
	cfg.CandidateIndexPath = path
	restored, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("sidecar align: %v", err)
	}
	if !reflect.DeepEqual(restored, built) {
		t.Fatal("sidecar-restored index aligns differently from built index")
	}
	s := cache.Stats()
	if s.Loaded != 1 || s.Built != 0 {
		t.Fatalf("want the index restored from the sidecar, got %+v", s)
	}
}

// TestAlignerStaleSidecarFallsBack points the aligner at a sidecar
// built under different options: the fingerprint mismatch must be
// detected and the index rebuilt with the aligner's own options, never
// served from the stale file.
func TestAlignerStaleSidecarFallsBack(t *testing.T) {
	target, links := d2yTarget()
	rels, err := candidates.Relations(target)
	if err != nil {
		t.Fatalf("relations: %v", err)
	}
	stale, err := candidates.Build(target, rels, links, candidates.Options{SampleSize: 3})
	if err != nil {
		t.Fatalf("build stale: %v", err)
	}
	path := filepath.Join(t.TempDir(), "dbpedia-candidates.idx")
	if err := stale.WriteIndexFile(path); err != nil {
		t.Fatalf("write sidecar: %v", err)
	}

	cache := NewIndexCache()
	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	cfg.CandidateIndexCache = cache
	cfg.CandidateIndexPath = path
	als, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	if len(als) == 0 {
		t.Fatal("no alignments")
	}
	s := cache.Stats()
	if s.Built != 1 || s.Loaded != 0 {
		t.Fatalf("stale sidecar must force a rebuild, got %+v", s)
	}
}

// TestIndexCacheCachesErrors checks a failing target is computed once,
// the error replayed from memory, and Invalidate clears the way for a
// retry. The failure is the endpoint's own: a query budget that the
// inventory query spends, so the build's first probe is denied.
func TestIndexCacheCachesErrors(t *testing.T) {
	_, d, l := paperWorld()
	target := endpoint.NewLocalRestricted(d, 4, endpoint.Quota{MaxQueries: 1})
	links := sampling.LinkView{Links: l, KIsA: true}
	cache := NewIndexCache()
	ctx := context.Background()
	if _, err := cache.Get(ctx, target, links, "", candidates.Options{}); !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("build over a spent quota: err = %v, want ErrQuotaExceeded", err)
	}
	denied := target.Stats().Denied
	if _, err := cache.Get(ctx, target, links, "", candidates.Options{}); !errors.Is(err, endpoint.ErrQuotaExceeded) {
		t.Fatalf("error was not cached: err = %v", err)
	}
	if got := target.Stats().Denied; got != denied {
		t.Fatalf("cached error still reached the endpoint: %d denials, was %d", got, denied)
	}
	s := cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("want one miss then one (error) hit, got %+v", s)
	}
	cache.Invalidate()
	target.SetQuota(endpoint.Quota{})
	if _, err := cache.Get(ctx, target, links, "", candidates.Options{}); err != nil {
		t.Fatalf("retry after Invalidate: %v", err)
	}
	if s := cache.Stats(); s.Built != 1 {
		t.Fatalf("retry did not rebuild: %+v", s)
	}
}

// heldTarget holds Prepare at a gate — the index build's first step
// after the inventory — so a test can act while the shared build is in
// flight.
type heldTarget struct {
	endpoint.Endpoint
	started chan struct{} // closed when the build arrives
	once    sync.Once
	gate    chan struct{} // the build proceeds once closed
}

func (h *heldTarget) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	h.once.Do(func() { close(h.started) })
	<-h.gate
	return h.Endpoint.Prepare(template, params...)
}

// TestIndexCacheCancelledCallerDoesNotPoison: the shared build belongs
// to no caller. One whose context ends mid-build stops waiting at once
// with its own ctx.Err(); the build completes for whoever remains, and
// the cancellation is never cached.
func TestIndexCacheCancelledCallerDoesNotPoison(t *testing.T) {
	inner, links := d2yTarget()
	target := &heldTarget{Endpoint: inner, started: make(chan struct{}), gate: make(chan struct{})}
	cache := NewIndexCache()

	ctxA, cancelA := context.WithCancel(context.Background())
	errA := make(chan error, 1)
	go func() {
		_, err := cache.Get(ctxA, target, links, "", candidates.Options{})
		errA <- err
	}()
	<-target.started
	cancelA()
	select {
	case err := <-errA:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		close(target.gate)
		t.Fatal("cancelled caller still waits for the build")
	}

	type got struct {
		ix  *candidates.Index
		err error
	}
	gotB := make(chan got, 1)
	go func() {
		ix, err := cache.Get(context.Background(), target, links, "", candidates.Options{})
		gotB <- got{ix, err}
	}()
	close(target.gate)
	if b := <-gotB; b.err != nil || b.ix == nil || b.ix.Len() == 0 {
		t.Fatalf("caller after the cancelled one: index %v, err %v", b.ix, b.err)
	}
	if s := cache.Stats(); s.Built != 1 {
		t.Fatalf("want the one build the cancelled caller started, got %+v", s)
	}
}
