package loadtest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sofya/internal/endpoint"
)

// Probe is one query shape in the traffic mix, selected with
// probability proportional to Weight. The query is prepared once per
// run and executed whole-result (SELECT or ASK by its form), which is
// how alignment probes and protocol clients consume the endpoint.
type Probe struct {
	Name   string
	Weight int
	Query  string
}

// DefaultMix is the standard probe mix: shapes that exercise the
// engine at different cost tiers and work against any KB — a cheap
// existence probe, a LIMIT-bounded scan, a RAND()-sampled top-k (the
// paper's sampling shape), and a DISTINCT aggregation walk.
func DefaultMix() []Probe {
	return []Probe{
		{Name: "ask", Weight: 4, Query: `ASK { ?s ?p ?o }`},
		{Name: "scan", Weight: 3, Query: `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 100`},
		{Name: "rand", Weight: 2, Query: `SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY RAND() LIMIT 10`},
		{Name: "distinct", Weight: 1, Query: `SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 50`},
	}
}

// ParseMix reweights DefaultMix from a flag spec like
// "ask=4,scan=3,rand=2,distinct=1". Omitted shapes get weight 0;
// unknown names are an error. An empty spec returns DefaultMix.
func ParseMix(spec string) ([]Probe, error) {
	mix := DefaultMix()
	if strings.TrimSpace(spec) == "" {
		return mix, nil
	}
	byName := make(map[string]*Probe, len(mix))
	for i := range mix {
		mix[i].Weight = 0
		byName[mix[i].Name] = &mix[i]
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadtest: bad mix entry %q: want name=weight", part)
		}
		p := byName[strings.TrimSpace(name)]
		if p == nil {
			return nil, fmt.Errorf("loadtest: unknown probe %q (have ask, scan, rand, distinct)", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("loadtest: bad weight in %q", part)
		}
		p.Weight = n
	}
	out := mix[:0]
	for _, p := range mix {
		if p.Weight > 0 {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("loadtest: mix has no probe with positive weight")
	}
	return out, nil
}

// Config parameterizes one load-test run.
type Config struct {
	// Rate > 0 selects the open loop: Poisson arrivals at Rate requests
	// per second, dispatched without waiting for completions. Rate == 0
	// selects the closed loop: Clients workers issuing back to back.
	Rate float64
	// Clients is the closed loop's concurrency. In the open loop it
	// caps outstanding requests (0 = DefaultMaxOutstanding): an arrival
	// past the cap is dropped client-side and counted, not blocked —
	// the generator never silently turns into a closed loop.
	Clients int
	// Duration is the measured window; Warmup runs the same traffic
	// before it without recording (caches fill, pools spin up).
	Duration time.Duration
	Warmup   time.Duration
	// Mix is the probe mix (DefaultMix when empty).
	Mix []Probe
	// Seed drives probe selection and arrival spacing; runs with the
	// same seed replay the same schedule.
	Seed int64
}

// DefaultMaxOutstanding caps the open loop's concurrent requests when
// Config.Clients is 0 — a safety rail so an overloaded target degrades
// into counted drops instead of unbounded goroutine growth.
const DefaultMaxOutstanding = 1024

// Result is one run's measurements. Latency quantiles cover completed
// successful requests; sheds and errors are counted, not timed (a
// rejection answered in microseconds would otherwise drag p50 down
// exactly when the server is at its worst).
type Result struct {
	Mode     string  `json:"mode"` // "open" or "closed"
	Rate     float64 `json:"rate_per_sec,omitempty"`
	Clients  int     `json:"clients"`
	Duration float64 `json:"duration_sec"`

	Issued    uint64 `json:"issued"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`    // ErrOverloaded / ErrQuotaExceeded family
	Errors    uint64 `json:"errors"`  // everything else
	Dropped   uint64 `json:"dropped"` // open loop: arrivals past the outstanding cap

	Throughput float64 `json:"throughput_per_sec"` // completed / duration

	P50  float64 `json:"p50_ms"`
	P90  float64 `json:"p90_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`

	PerProbe map[string]uint64 `json:"per_probe,omitempty"`

	// Hist is the merged latency histogram, for callers that want more
	// than the summary quantiles. Not serialized.
	Hist *Hist `json:"-"`
}

// ShedRate is the shed fraction of issued requests.
func (r Result) ShedRate() float64 {
	if r.Issued == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Issued)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runner is the shared machinery of both loops: prepared probes,
// cumulative-weight selection, and per-worker recorders.
type runner struct {
	probes    []preparedProbe
	cum       []int // cumulative weights for selection
	totalW    int
	recording atomic.Bool
}

type preparedProbe struct {
	name string
	ask  bool
	pq   endpoint.PreparedQuery
}

// recorder is one worker's private tally; merged after the run.
type recorder struct {
	hist     Hist
	issued   uint64
	done     uint64
	shed     uint64
	errs     uint64
	perProbe map[string]uint64
}

func newRecorder() *recorder { return &recorder{perProbe: make(map[string]uint64)} }

func (r *recorder) merge(o *recorder) {
	r.hist.Merge(&o.hist)
	r.issued += o.issued
	r.done += o.done
	r.shed += o.shed
	r.errs += o.errs
	for k, v := range o.perProbe {
		r.perProbe[k] += v
	}
}

func newRunner(ep endpoint.Endpoint, mix []Probe) (*runner, error) {
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	r := &runner{}
	for _, p := range mix {
		if p.Weight <= 0 {
			continue
		}
		pq, err := ep.Prepare(p.Query)
		if err != nil {
			return nil, fmt.Errorf("loadtest: prepare %s: %w", p.Name, err)
		}
		ask := strings.HasPrefix(strings.TrimSpace(strings.ToUpper(p.Query)), "ASK")
		r.probes = append(r.probes, preparedProbe{name: p.Name, ask: ask, pq: pq})
		r.totalW += p.Weight
		r.cum = append(r.cum, r.totalW)
	}
	if len(r.probes) == 0 {
		return nil, errors.New("loadtest: mix has no probe with positive weight")
	}
	return r, nil
}

// pick selects a probe by cumulative weight.
func (r *runner) pick(rng *rand.Rand) *preparedProbe {
	w := rng.Intn(r.totalW)
	i := sort.SearchInts(r.cum, w+1)
	return &r.probes[i]
}

// issue sends one probe and reports its latency and outcome.
func (r *runner) issue(ctx context.Context, p *preparedProbe) (time.Duration, error) {
	start := time.Now()
	var err error
	if p.ask {
		_, err = p.pq.AskCtx(ctx)
	} else {
		_, err = p.pq.SelectCtx(ctx)
	}
	return time.Since(start), err
}

// record tallies one completed request. Callers skip it for requests
// dispatched outside the measured window (the recording decision is
// taken at dispatch, so a request straddling the warmup boundary is
// not half counted) and for completions after the run's context ended,
// whose latency would be an artifact of teardown.
func (rec *recorder) record(p *preparedProbe, lat time.Duration, err error) {
	rec.issued++
	rec.perProbe[p.name]++
	switch {
	case err == nil:
		rec.done++
		rec.hist.Record(lat)
	case errors.Is(err, endpoint.ErrQuotaExceeded): // sheds included: Is(ErrOverloaded, ErrQuotaExceeded)
		rec.shed++
	default:
		rec.errs++
	}
}

// Run executes one load test against ep and reports its measurements.
// ctx cancels the run early (the partial window is still reported,
// scaled to the time actually measured).
func Run(ctx context.Context, ep endpoint.Endpoint, cfg Config) (*Result, error) {
	if cfg.Duration <= 0 {
		return nil, errors.New("loadtest: Duration must be positive")
	}
	run, err := newRunner(ep, cfg.Mix)
	if err != nil {
		return nil, err
	}
	if cfg.Rate > 0 {
		return runOpen(ctx, run, cfg)
	}
	return runClosed(ctx, run, cfg)
}

// runClosed drives cfg.Clients workers issuing probes back to back.
func runClosed(ctx context.Context, run *runner, cfg Config) (*Result, error) {
	clients := cfg.Clients
	if clients <= 0 {
		clients = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		rec := newRecorder()
		recs[i] = rec
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				p := run.pick(rng)
				record := run.recording.Load()
				lat, err := run.issue(ctx, p)
				if record && ctx.Err() == nil {
					rec.record(p, lat, err)
				}
			}
		}()
	}

	measured, err := window(ctx, run, cfg)
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	res := collect(recs, measured)
	res.Mode = "closed"
	res.Clients = clients
	return res, nil
}

// runOpen dispatches Poisson arrivals at cfg.Rate per second: each
// arrival gets its own goroutine, bounded only by the outstanding cap.
func runOpen(ctx context.Context, run *runner, cfg Config) (*Result, error) {
	maxOut := cfg.Clients
	if maxOut <= 0 {
		maxOut = DefaultMaxOutstanding
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Striped recorders: arrivals round-robin over a small pool so the
	// per-request goroutines never share a histogram without a lock.
	const stripes = 16
	recs := make([]*recorder, stripes)
	locks := make([]sync.Mutex, stripes)
	for i := range recs {
		recs[i] = newRecorder()
	}
	var dropped atomic.Uint64
	outstanding := make(chan struct{}, maxOut)

	rng := rand.New(rand.NewSource(cfg.Seed))
	var wg sync.WaitGroup
	dispatchDone := make(chan struct{})
	go func() {
		defer close(dispatchDone)
		next := time.Now()
		for seq := 0; ; seq++ {
			// Exponential inter-arrival spacing: a Poisson process at
			// cfg.Rate. The schedule is absolute (next += gap), so a
			// slow dispatch does not stretch the offered load.
			next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			} else if ctx.Err() != nil {
				return
			}
			p := run.pick(rng)
			record := run.recording.Load()
			select {
			case outstanding <- struct{}{}:
			default:
				// The cap is the open loop's honesty: the offered load
				// exceeded what the target absorbs, and we say so
				// instead of queueing arrivals into a hidden closed loop.
				if record {
					dropped.Add(1)
				}
				continue
			}
			wg.Add(1)
			go func(stripe int) {
				defer wg.Done()
				defer func() { <-outstanding }()
				lat, err := run.issue(ctx, p)
				if record && ctx.Err() == nil {
					locks[stripe].Lock()
					recs[stripe].record(p, lat, err)
					locks[stripe].Unlock()
				}
			}(seq % stripes)
		}
	}()

	measured, err := window(ctx, run, cfg)
	cancel()
	<-dispatchDone
	wg.Wait()
	if err != nil {
		return nil, err
	}
	res := collect(recs, measured)
	res.Mode = "open"
	res.Rate = cfg.Rate
	res.Clients = maxOut
	res.Dropped = dropped.Load()
	res.Issued += res.Dropped
	return res, nil
}

// window runs the warmup then the measured window, flipping the
// recording flag in between; it returns the time actually measured.
func window(ctx context.Context, run *runner, cfg Config) (time.Duration, error) {
	if cfg.Warmup > 0 {
		select {
		case <-time.After(cfg.Warmup):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	run.recording.Store(true)
	start := time.Now()
	select {
	case <-time.After(cfg.Duration):
	case <-ctx.Done():
	}
	run.recording.Store(false)
	return time.Since(start), nil
}

func collect(recs []*recorder, measured time.Duration) *Result {
	total := newRecorder()
	for _, r := range recs {
		total.merge(r)
	}
	res := &Result{
		Duration:  measured.Seconds(),
		Issued:    total.issued,
		Completed: total.done,
		Shed:      total.shed,
		Errors:    total.errs,
		PerProbe:  total.perProbe,
		Hist:      &total.hist,
		P50:       ms(total.hist.Quantile(0.50)),
		P90:       ms(total.hist.Quantile(0.90)),
		P99:       ms(total.hist.Quantile(0.99)),
		P999:      ms(total.hist.Quantile(0.999)),
		Max:       ms(total.hist.Max()),
		Mean:      ms(total.hist.Mean()),
	}
	if s := measured.Seconds(); s > 0 {
		res.Throughput = float64(total.done) / s
	}
	return res
}

// Sweep runs a closed-loop test at each client count, reusing cfg for
// everything else — the capacity curve: where throughput saturates and
// what latency does past that point.
func Sweep(ctx context.Context, ep endpoint.Endpoint, cfg Config, clients []int) ([]Result, error) {
	out := make([]Result, 0, len(clients))
	for _, n := range clients {
		c := cfg
		c.Rate = 0
		c.Clients = n
		res, err := Run(ctx, ep, c)
		if err != nil {
			return out, err
		}
		out = append(out, *res)
	}
	return out, nil
}

// MarshalJSON renders results as indented JSON, one array.
func MarshalJSON(results []Result) ([]byte, error) {
	return json.MarshalIndent(results, "", "  ")
}

// MarkdownTable renders results as the EXPERIMENTS.md table: one row
// per run, latencies in milliseconds, shed rate as a percentage.
func MarkdownTable(results []Result) string {
	var sb strings.Builder
	sb.WriteString("| mode | clients | rate/s | throughput/s | p50 ms | p90 ms | p99 ms | p999 ms | max ms | shed % | errors |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range results {
		rate := "—"
		if r.Rate > 0 {
			rate = strconv.FormatFloat(r.Rate, 'f', -1, 64)
		}
		fmt.Fprintf(&sb, "| %s | %d | %s | %.0f | %.2f | %.2f | %.2f | %.2f | %.2f | %.1f | %d |\n",
			r.Mode, r.Clients, rate, r.Throughput,
			r.P50, r.P90, r.P99, r.P999, r.Max,
			100*r.ShedRate(), r.Errors)
	}
	return sb.String()
}
