package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sofya/bench/trace"
)

// The tests share one tiny fixture set.
var (
	tinyOnce sync.Once
	tinyDir  string
	tinyErr  error
)

func tinyWorkdir(t *testing.T) string {
	t.Helper()
	tinyOnce.Do(func() {
		tinyDir, tinyErr = os.MkdirTemp("", "sofya-bench-test-")
		if tinyErr == nil {
			_, tinyErr = EnsureFixtures(tinyDir, TinySpec())
		}
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tinyDir != "" {
		os.RemoveAll(tinyDir)
	}
	os.Exit(code)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, on the tiny spec
// and checks the output contract: every declared metric exactly once,
// well-formed names, every op verified.
func TestSmoke(t *testing.T) {
	workdir := tinyWorkdir(t)
	for _, w := range Workloads {
		for _, traced := range []bool{false, true} {
			res, info, err := Run(context.Background(), Options{
				Workload: w, Seed: 1, Seconds: 0.5, Trace: traced, WorkDir: workdir, Spec: TinySpec(),
			})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d notes=%v", w, traced, res.Correct, res.Attempted, res.Failed, info.Notes)
			}
			defs := EndToEnd
			if traced {
				defs = PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics emitted, %d declared", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", w, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v; must never be 0", w, d.Name, m.Value)
				}
			}
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", w, name)
				}
			}
			if traced {
				if got := res.Metrics["trace.misparented_spans"].Value; got != 0 {
					t.Errorf("%s: %v spans hang under the wrong layer", w, got)
				}
				var shares float64
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "op.wall_share.") {
						shares += m.Value
					}
				}
				if shares < 0.999 || shares > 1.001 {
					t.Errorf("%s: op.wall_share.* sum to %.4f of op wall time, want 1", w, shares)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the Go
// declarations in step and inside the contract's caps.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(Workloads) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d declared (cap 8)", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] || !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), declared %q", i, w.Name, len(w.Why), Workloads[i])
		}
	}
	if len(b.EndToEnd) != len(EndToEnd) || len(EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared (cap 16)", len(b.EndToEnd), len(EndToEnd))
	}
	setup := false
	for i, m := range b.EndToEnd {
		d := EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, declared %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(b.PerLayer) != len(PerLayer) || len(PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared (cap 128)", len(b.PerLayer), len(PerLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, declared %+v", i, m, d)
		}
	}
	for _, d := range append(append([]MetricDef(nil), EndToEnd...), PerLayer...) {
		if seen[d.Name] || !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is duplicated or malformed", d.Name)
		}
		seen[d.Name] = true
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// TestFixturesDeterministic: two builds of one spec are byte-identical,
// so a parent/change pair reads the same inputs whichever built them.
func TestFixturesDeterministic(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	for _, dir := range []string{a, b} {
		if err := BuildFixtures(dir, TinySpec()); err != nil {
			t.Fatal(err)
		}
	}
	files := 0
	err := filepath.WalkDir(a, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(a, path)
		x, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		y, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two builds", rel)
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 10 {
		t.Errorf("only %d fixture files compared", files)
	}
}

// TestTracedMatchesUntracedAndRepeats: the wrappers do not change what
// the program does (same verified digests, same query count per pass),
// and query counts repeat exactly from pass to pass; on the in-process
// workload so do row counts (over HTTP, rows produced after an early
// client close may differ by up to one wire batch per stream).
func TestTracedMatchesUntracedAndRepeats(t *testing.T) {
	fx, err := EnsureFixtures(tinyWorkdir(t), TinySpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	order := func(n int) []int {
		ord := make([]int, n)
		for i := range ord {
			ord[i] = n - 1 - i
		}
		return ord
	}
	for _, name := range Workloads {
		var queries [2][2]int
		var rows [2][2]int
		for ti, tr := range []*trace.Tracer{nil, trace.New()} {
			e := env{spec: TinySpec(), fx: fx, p: Concurrency(), tr: tr}
			in, ord, err := setUp(ctx, name, e, order)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			w := &window{}
			for pass := 0; pass < 2; pass++ {
				ps := runPass(ctx, in, ord, tr, w)
				if ps.failed != 0 {
					t.Errorf("%s traced=%t pass %d: %d ops differ from the reference: %v", name, tr != nil, pass, ps.failed, w.firstErr)
				}
				queries[ti][pass], rows[ti][pass] = ps.queries, ps.rowsOut
			}
			in.close()
		}
		if queries[0][0] != queries[1][0] {
			t.Errorf("%s: %d queries per pass untraced, %d traced", name, queries[0][0], queries[1][0])
		}
		if name == ServeHTTPClosed || name == BatchTopKScale {
			// concurrent callers: coalescing and cache races may shift a
			// query between passes; their counts are not claimed exact
			continue
		}
		if queries[0][0] != queries[0][1] {
			t.Errorf("%s: queries per pass do not repeat: %d then %d", name, queries[0][0], queries[0][1])
		}
		if name == OnTheFlyLocal && rows[0][0] != rows[0][1] {
			t.Errorf("%s: rows per pass do not repeat: %d then %d", name, rows[0][0], rows[0][1])
		}
	}
}

// TestQuietKeepsWholePasses: the timing metrics come from the fastest
// passes taken whole, so a slow op inside a fast pass stays in the
// latencies, and a slow pass drops out with everything in it.
func TestQuietKeepsWholePasses(t *testing.T) {
	w := &window{}
	for p := 0; p < 30; p++ {
		wall := int64(1000 + 10*p) // pass 0 is the fastest
		w.passes = append(w.passes, passSample{ops: 100, wallNS: wall, cpuNS: 2 * wall})
		for i := 0; i < 100; i++ {
			lat := int64(10)
			if i == 0 {
				lat = 500 // one slow op in every pass
			}
			if p >= 3 {
				lat += 1000 // everything in the slower passes is slow
			}
			w.latNS = append(w.latNS, lat)
		}
	}
	q, lat := quiet(w)
	// a tenth of 30 passes is 3, which already holds 200 latencies
	if q.ops != 300 || q.wallNS != 1000+1010+1020 || q.cpuNS != 2*q.wallNS || len(lat) != 300 {
		t.Fatalf("quiet = %+v with %d latencies", q, len(lat))
	}
	if lat[0] != 10 || lat[len(lat)-1] != 500 || lat[len(lat)-4] != 10 {
		t.Errorf("latencies %v … %v: want the three fast passes whole, slow ops included", lat[:2], lat[len(lat)-4:])
	}
	// few passes of few ops: at least two passes and 200 latencies
	few := &window{latNS: make([]int64, 4*60)}
	for p := 0; p < 4; p++ {
		few.passes = append(few.passes, passSample{ops: 60, wallNS: int64(1000 + p)})
	}
	if q, lat := quiet(few); q.ops != 240 || len(lat) != 240 {
		t.Errorf("4 passes of 60 ops: quiet kept %d ops, %d latencies, want all 240", q.ops, len(lat))
	}
}
