// Command experiments runs the paper's evaluation (Table 1) and the
// extension ablations E2–E7 over the synthetic world, printing the
// tables recorded in EXPERIMENTS.md.
//
//	experiments -spec paper -e all
//	experiments -spec tiny -e table1,e4 -md
//	experiments -e candidates -candsizes 2000,20000,100000 -topk 16
//	experiments -e e9 -capn 20000 -caps 0,16,64,256
//
// With -world, the evaluation world is loaded from a directory written
// by cmd/kbgen instead of being regenerated; when the directory holds
// binary snapshots (kbgen -snapshot) the KBs are memory-mapped in
// milliseconds, and the experiment output is byte-identical to a
// generated run of the same spec:
//
//	kbgen -spec paper -out ./world -snapshot
//	experiments -world ./world -e table1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"sofya/internal/core"
	"sofya/internal/eval"
	"sofya/internal/experiments"
	"sofya/internal/synth"
)

// experimentNames are the values -e takes.
var experimentNames = []string{"all", "table1", "e2", "e3", "e4", "e5", "e6", "e7", "candidates", "e9"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its surroundings passed in: it parses args, writes
// the tables to stdout and timings to stderr, and returns the exit
// status — 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specName   = fs.String("spec", "paper", "world size: tiny | paper")
		worldDir   = fs.String("world", "", "load the world from this kbgen output directory (snapshots used when present) instead of generating it")
		which      = fs.String("e", "all", "comma-separated experiments: table1,e2,e3,e4,e5,e6,e7 (candidates and e9 run only when named: they generate their own scale worlds)")
		candSizes  = fs.String("candsizes", "2000,20000,100000", "target inventory sizes for the candidates asymptotics sweep")
		topk       = fs.Int("topk", 16, "candidate top-k for the candidates and e9 experiments")
		caps       = fs.String("caps", "0,16,64,256", "posting caps for the e9 truncation sweep (0 = uncapped)")
		capN       = fs.Int("capn", 20000, "target inventory size for the e9 truncation sweep")
		markdown   = fs.Bool("md", false, "emit markdown tables")
		parallel   = fs.Int("parallel", 0, "aligner worker bound per run (0 = GOMAXPROCS; results are identical at any setting)")
		shards     = fs.Int("shards", 1, "serve each KB as this many subject-hash shards behind a federating group (alignment output is identical at any setting; the E4 query/row accounting reflects the per-shard fan-out)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*which, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if !slices.Contains(experimentNames, e) {
			return usage("unknown -e experiment %q: want a comma-separated list of %s", e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	has := func(e string) bool { return want["all"] || want[e] }

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				code = fail(err)
			}
		}()
	}
	if *memprofile != "" {
		// the profile is written after the tables, whatever run returns
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC()
				err = errors.Join(pprof.WriteHeapProfile(f), f.Close())
			}
			if err != nil {
				code = fail(err)
			}
		}()
	}

	start := time.Now()
	var world *synth.World
	if *worldDir != "" {
		var err error
		if world, err = synth.LoadWorld(*worldDir); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "# world loaded from %s in %s (yago mmap=%v, dbpedia mmap=%v)\n",
			*worldDir, time.Since(start).Round(time.Millisecond), world.Yago.Mapped(), world.Dbp.Mapped())
	} else {
		spec, err := synth.SpecNamed(*specName)
		if err != nil {
			return usage("-spec: %v", err)
		}
		world = synth.Generate(spec)
	}
	setup := experiments.NewSetup(world)
	setup.Parallelism = *parallel
	setup.Shards = *shards

	emit := func(title string, t *eval.Table) {
		fmt.Fprintln(stdout, "##", title)
		fmt.Fprintln(stdout)
		if *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.String())
		}
	}

	emit("World", experiments.WorldSummary(world))

	var table1 *experiments.Table1Result
	if has("table1") || has("e3") || has("e4") || has("e7") {
		var err error
		if table1, err = experiments.Table1(setup); err != nil {
			return fail(err)
		}
	}
	if has("table1") {
		emit("E1 — Table 1: alignment subsumptions, YAGO ↔ DBpedia", table1.Render())
	}
	if has("e2") {
		points, err := experiments.SampleSizeSweep(setup, []int{1, 2, 5, 10, 20, 50})
		if err != nil {
			return fail(err)
		}
		emit("E2 — sample-size sweep (dbpd ⊂ yago)", experiments.RenderSampleSize(points))
	}
	if has("e3") {
		emit("E3 — threshold sweep (dbpd ⊂ yago)", experiments.RenderThresholdSweep(table1))
	}
	if has("e4") {
		emit("E4 — query budget", experiments.RenderQueryBudget(experiments.QueryBudget(setup, table1)))
	}
	if has("e5") {
		points, err := experiments.SameAsCoverage(setup, []float64{0.3, 0.5, 0.7, 0.9, 1.0})
		if err != nil {
			return fail(err)
		}
		emit("E5 — sameAs coverage sensitivity (UBS, dbpd ⊂ yago)", experiments.RenderCoverage(points))
	}
	if has("e6") {
		rows, err := experiments.UBSAblation(setup)
		if err != nil {
			return fail(err)
		}
		emit("E6 — UBS strategy ablation", experiments.RenderAblation(rows))
	}
	if has("e7") {
		emit("E7 — on-the-fly vs snapshot", experiments.RenderSnapshot(experiments.SnapshotComparison(setup, table1)))
	}
	// The candidates experiment ignores -spec/-world: it generates its
	// own ScaleSpec worlds, whose inventories reach the sizes where
	// all-pairs candidate generation stops being viable. It is excluded
	// from "all" because the largest sweep point takes minutes.
	if want["candidates"] {
		sizes, err := parseSizes(*candSizes)
		if err != nil {
			return usage("%v", err)
		}
		points, err := experiments.CandidateAsymptotics(sizes, *topk)
		if err != nil {
			return fail(err)
		}
		emit(fmt.Sprintf("E8 — candidate generation asymptotics (top-%d)", *topk),
			experiments.RenderAsymptotics(points))
		diffN := sizes[len(sizes)-1]
		diff, err := experiments.CandidateDifferential(
			experiments.NewSetup(synth.Generate(synth.ScaleSpec(diffN))),
			core.UBSConfig(), *topk, 0)
		if err != nil {
			return fail(err)
		}
		emit(fmt.Sprintf("E8 — pruned vs exact alignment differential (n=%d, top-%d)", diffN, *topk),
			experiments.RenderDifferential(diff))
	}
	// E9 likewise generates its own ScaleSpec world and runs only when
	// named: it sweeps the posting cap (-caps) over a -capn inventory,
	// scoring capped probes against the exact reference.
	if want["e9"] {
		capList, err := parseCaps(*caps)
		if err != nil {
			return usage("%v", err)
		}
		points, err := experiments.PostingCapSweep(*capN, capList, *topk)
		if err != nil {
			return fail(err)
		}
		emit(fmt.Sprintf("E9 — posting-cap truncation (n=%d, top-%d)", *capN, *topk),
			experiments.RenderPostingCap(points))
	}
	fmt.Fprintf(stderr, "# total time %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

func parseSizes(csv string) ([]int, error) {
	var sizes []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -candsizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

func parseCaps(csv string) ([]int, error) {
	var caps []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -caps entry %q", s)
		}
		caps = append(caps, n)
	}
	return caps, nil
}
