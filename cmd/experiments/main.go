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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sofya/internal/core"
	"sofya/internal/eval"
	"sofya/internal/experiments"
	"sofya/internal/synth"
)

func main() {
	var (
		specName   = flag.String("spec", "paper", "world size: tiny | paper")
		worldDir   = flag.String("world", "", "load the world from this kbgen output directory (snapshots used when present) instead of generating it")
		which      = flag.String("e", "all", "comma-separated experiments: table1,e2,e3,e4,e5,e6,e7 (candidates and e9 run only when named: they generate their own scale worlds)")
		candSizes  = flag.String("candsizes", "2000,20000,100000", "target inventory sizes for the candidates asymptotics sweep")
		topk       = flag.Int("topk", 16, "candidate top-k for the candidates and e9 experiments")
		caps       = flag.String("caps", "0,16,64,256", "posting caps for the e9 truncation sweep (0 = uncapped)")
		capN       = flag.Int("capn", 20000, "target inventory size for the e9 truncation sweep")
		markdown   = flag.Bool("md", false, "emit markdown tables")
		parallel   = flag.Int("parallel", 0, "aligner worker bound per run (0 = GOMAXPROCS; results are identical at any setting)")
		shards     = flag.Int("shards", 1, "serve each KB as this many subject-hash shards behind a federating group (alignment output is identical at any setting; the E4 query/row accounting reflects the per-shard fan-out)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	start := time.Now()
	var world *synth.World
	if *worldDir != "" {
		var err error
		world, err = synth.LoadWorld(*worldDir)
		check(err)
		fmt.Fprintf(os.Stderr, "# world loaded from %s in %s (yago mmap=%v, dbpedia mmap=%v)\n",
			*worldDir, time.Since(start).Round(time.Millisecond), world.Yago.Mapped(), world.Dbp.Mapped())
	} else {
		spec, err := synth.SpecNamed(*specName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments: -spec:", err)
			os.Exit(2)
		}
		world = synth.Generate(spec)
	}
	setup := experiments.NewSetup(world)
	setup.Parallelism = *parallel
	setup.Shards = *shards

	want := map[string]bool{}
	for _, e := range strings.Split(*which, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	has := func(e string) bool { return want["all"] || want[e] }

	emit := func(title string, t *eval.Table) {
		fmt.Println("##", title)
		fmt.Println()
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}

	emit("World", experiments.WorldSummary(world))

	var table1 *experiments.Table1Result
	needTable1 := has("table1") || has("e3") || has("e4") || has("e7")
	if needTable1 {
		var err error
		table1, err = experiments.Table1(setup)
		check(err)
	}
	if has("table1") {
		emit("E1 — Table 1: alignment subsumptions, YAGO ↔ DBpedia", table1.Render())
	}
	if has("e2") {
		points, err := experiments.SampleSizeSweep(setup, []int{1, 2, 5, 10, 20, 50})
		check(err)
		emit("E2 — sample-size sweep (dbpd ⊂ yago)", experiments.RenderSampleSize(points))
	}
	if has("e3") {
		pca, cwa := experiments.ThresholdSweep(table1)
		emit("E3 — threshold sweep (dbpd ⊂ yago)", experiments.RenderThresholdSweep(pca, cwa))
	}
	if has("e4") {
		emit("E4 — query budget", experiments.RenderQueryBudget(experiments.QueryBudget(setup, table1)))
	}
	if has("e5") {
		points, err := experiments.SameAsCoverage(setup, []float64{0.3, 0.5, 0.7, 0.9, 1.0})
		check(err)
		emit("E5 — sameAs coverage sensitivity (UBS, dbpd ⊂ yago)", experiments.RenderCoverage(points))
	}
	if has("e6") {
		rows, err := experiments.UBSAblation(setup)
		check(err)
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
		check(err)
		points, err := experiments.CandidateAsymptotics(sizes, *topk)
		check(err)
		emit(fmt.Sprintf("E8 — candidate generation asymptotics (top-%d)", *topk),
			experiments.RenderAsymptotics(points))
		diffN := sizes[len(sizes)-1]
		diff, err := experiments.CandidateDifferential(
			experiments.NewSetup(synth.Generate(synth.ScaleSpec(diffN))),
			core.UBSConfig(), *topk, 0)
		check(err)
		emit(fmt.Sprintf("E8 — pruned vs exact alignment differential (n=%d, top-%d)", diffN, *topk),
			experiments.RenderDifferential(diff))
	}
	// E9 likewise generates its own ScaleSpec world and runs only when
	// named: it sweeps the posting cap (-caps) over a -capn inventory,
	// scoring capped probes against the exact reference.
	if want["e9"] {
		capList, err := parseCaps(*caps)
		check(err)
		points, err := experiments.PostingCapSweep(*capN, capList, *topk)
		check(err)
		emit(fmt.Sprintf("E9 — posting-cap truncation (n=%d, top-%d)", *capN, *topk),
			experiments.RenderPostingCap(points))
	}
	fmt.Fprintf(os.Stderr, "# total time %s\n", time.Since(start).Round(time.Millisecond))
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

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
