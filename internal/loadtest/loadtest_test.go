package loadtest

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

func testKB() *kb.KB {
	k := kb.New("test")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/b")
	k.AddIRIs("http://x/a", "http://x/p", "http://x/c")
	k.AddIRIs("http://x/b", "http://x/q", "http://x/c")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/name"), rdf.NewLangLiteral("Ay", "en")))
	return k
}

// slowEndpoint answers like the endpoint it wraps, d later: a busy KB
// behind the admission gate under test.
type slowEndpoint struct {
	endpoint.Endpoint
	d time.Duration
}

func (s slowEndpoint) Prepare(template string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := s.Endpoint.Prepare(template, params...)
	if err != nil {
		return nil, err
	}
	return slowPrepared{pq, s.d}, nil
}

// slowPrepared waits d, or until its context ends, before each SELECT
// and ASK it runs.
type slowPrepared struct {
	endpoint.PreparedQuery
	d time.Duration
}

func (p slowPrepared) wait(ctx context.Context) error {
	t := time.NewTimer(p.d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p slowPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	return p.PreparedQuery.SelectCtx(ctx, args...)
}

func (p slowPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	if err := p.wait(ctx); err != nil {
		return false, err
	}
	return p.PreparedQuery.AskCtx(ctx, args...)
}

// The closed loop drives real traffic: every probe shape executes,
// latencies land in the histogram, throughput and per-probe counts add
// up.
func TestClosedLoopAgainstLocal(t *testing.T) {
	ep := endpoint.NewLocal(testKB(), 1)
	res, err := Run(context.Background(), ep, Config{
		Clients:  4,
		Duration: 150 * time.Millisecond,
		Warmup:   30 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" || res.Clients != 4 {
		t.Fatalf("mode/clients = %s/%d", res.Mode, res.Clients)
	}
	if res.Completed == 0 || res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("completed=%d errors=%d shed=%d", res.Completed, res.Errors, res.Shed)
	}
	if res.Issued != res.Completed {
		t.Fatalf("issued %d != completed %d on an unrestricted endpoint", res.Issued, res.Completed)
	}
	if res.Hist.Count() != res.Completed {
		t.Fatalf("histogram count %d != completed %d", res.Hist.Count(), res.Completed)
	}
	if res.Throughput <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("throughput=%f p50=%f p99=%f", res.Throughput, res.P50, res.P99)
	}
	var probes uint64
	for _, n := range res.PerProbe {
		probes += n
	}
	if probes != res.Issued {
		t.Fatalf("per-probe counts %d != issued %d", probes, res.Issued)
	}
	// All four default shapes must actually run under the default mix.
	for _, name := range []string{"ask", "scan", "rand", "distinct"} {
		if res.PerProbe[name] == 0 {
			t.Fatalf("probe %s never selected: %v", name, res.PerProbe)
		}
	}
}

// The open loop dispatches Poisson arrivals: completed traffic tracks
// the offered rate on an unloaded endpoint, and nothing is dropped.
func TestOpenLoopTracksOfferedRate(t *testing.T) {
	ep := endpoint.NewLocal(testKB(), 1)
	res, err := Run(context.Background(), ep, Config{
		Rate:     400,
		Duration: 300 * time.Millisecond,
		Warmup:   30 * time.Millisecond,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "open" || res.Rate != 400 {
		t.Fatalf("mode/rate = %s/%f", res.Mode, res.Rate)
	}
	if res.Dropped != 0 || res.Errors != 0 {
		t.Fatalf("dropped=%d errors=%d", res.Dropped, res.Errors)
	}
	// ~120 arrivals expected; Poisson noise and scheduler jitter allow
	// a wide band, but the loop must neither stall nor run away.
	if res.Completed < 40 || res.Completed > 400 {
		t.Fatalf("completed = %d, want ≈120", res.Completed)
	}
}

// An open loop over a saturated admission gate counts sheds instead of
// collapsing: the arrival schedule never blocks on completions.
func TestOpenLoopCountsSheds(t *testing.T) {
	inner := slowEndpoint{endpoint.NewLocal(testKB(), 1), 30 * time.Millisecond}
	ep := endpoint.NewAdmission(inner, endpoint.Limits{MaxInFlight: 1})
	res, err := Run(context.Background(), ep, Config{
		Rate:     300,
		Clients:  2, // outstanding cap: beyond 2 in flight, arrivals drop client-side
		Duration: 250 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 && res.Dropped == 0 {
		t.Fatalf("overloaded run shed nothing: %+v", res)
	}
	if res.Issued != res.Completed+res.Shed+res.Errors+res.Dropped {
		t.Fatalf("counters do not add up: %+v", res)
	}
}

// A closed-loop sweep over an admission-controlled endpoint: the
// capacity curve rises to saturation, and past it completed-request
// latency stays bounded because excess load sheds. This is the
// EXPERIMENTS.md scenario in miniature.
func TestSweepWithAdmissionSheds(t *testing.T) {
	inner := slowEndpoint{endpoint.NewLocal(testKB(), 1), time.Millisecond}
	ep := endpoint.NewAdmission(inner, endpoint.Limits{MaxInFlight: 2, Queue: 2, QueueTimeout: time.Millisecond})
	results, err := Sweep(context.Background(), ep, Config{
		Duration: 120 * time.Millisecond,
		Warmup:   20 * time.Millisecond,
		Seed:     4,
	}, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Clients != 1 || results[1].Clients != 8 {
		t.Fatalf("sweep shape: %+v", results)
	}
	if results[0].Shed != 0 {
		t.Fatalf("1 client against max-inflight 2 shed %d", results[0].Shed)
	}
	if results[1].Shed == 0 {
		t.Fatal("8 clients against max-inflight 2 shed nothing")
	}
	md := MarkdownTable(results)
	if !strings.Contains(md, "| closed | 8 |") || strings.Count(md, "\n") != 4 {
		t.Fatalf("markdown table malformed:\n%s", md)
	}
	if _, err := MarshalJSON(results); err != nil {
		t.Fatal(err)
	}
}

// Canceling the run's context ends it early and still reports the
// partial window.
func TestRunCancellation(t *testing.T) {
	ep := endpoint.NewLocal(testKB(), 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, ep, Config{Clients: 2, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not end the run")
	}
	if res.Duration > 5 {
		t.Fatalf("measured window %fs, want the partial window", res.Duration)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ep := endpoint.NewLocal(testKB(), 1)
	if _, err := Run(context.Background(), ep, Config{}); err == nil {
		t.Fatal("zero duration accepted")
	}
	if _, err := Run(context.Background(), ep, Config{Duration: time.Second, Mix: []Probe{{Name: "bad", Weight: 1, Query: "SELEC"}}}); err == nil {
		t.Fatal("unparseable probe accepted")
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("")
	if err != nil || len(mix) != 4 {
		t.Fatalf("default mix: %v %v", mix, err)
	}
	mix, err = ParseMix("ask=1, scan=5")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Name != "ask" || mix[1].Weight != 5 {
		t.Fatalf("mix = %+v", mix)
	}
	for _, bad := range []string{"nope=1", "ask", "ask=-2", "ask=x", "ask=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}

// Identical seeds replay identical probe schedules, and the weighted
// selection honors the weights.
func TestPickDeterministicAndWeighted(t *testing.T) {
	ep := endpoint.NewLocal(testKB(), 1)
	run, err := newRunner(ep, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	counts := make(map[string]int)
	for i := 0; i < 10000; i++ {
		a, b := run.pick(r1), run.pick(r2)
		if a.name != b.name {
			t.Fatalf("pick %d diverged for equal seeds: %s vs %s", i, a.name, b.name)
		}
		counts[a.name]++
	}
	// DefaultMix weights 4:3:2:1 — each shape's share within ±5 points.
	for name, weight := range map[string]float64{"ask": 0.4, "scan": 0.3, "rand": 0.2, "distinct": 0.1} {
		share := float64(counts[name]) / 10000
		if share < weight-0.05 || share > weight+0.05 {
			t.Fatalf("probe %s share %.3f, want ≈%.1f", name, share, weight)
		}
	}
}
