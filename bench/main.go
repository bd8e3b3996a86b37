// Command bench is SOFYA's benchmark: on-the-fly alignment and probe
// serving, measured end to end and layer by layer.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload once and prints, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. This is the form BENCHMARK.json's command invokes (through
// run.sh, which builds the binary inside the checkout first).
//
//	bench all -seed <n> -out <file> [-repeat N]
//
// runs every workload in its own child process, untraced then traced,
// prints every metric by name with its unit, and writes them to <file>.
//
//	bench compare <base.json> <new.json>
//
// compares two such files against the regression bounds and exits
// non-zero on any worse metric or any rise in failures.
//
//	bench fixtures [-workdir dir]
//
// builds the full fixture set if it is not cached yet. run.sh does this in a
// process of its own, so no measured run carries the generator's memory
// in its rss_peak_mb.
//
// See README.md in this directory for the workloads and the glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sofya/bench/harness"
)

// DefaultSeconds is the measured window of one run; BENCHMARK.json's
// run_seconds carries the same value.
const DefaultSeconds = 20

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(runAll(os.Args[2:]))
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		case "fixtures":
			os.Exit(runFixtures(os.Args[2:]))
		}
	}
	os.Exit(runOne(os.Args[1:]))
}

// commonFlags are shared by the single-run and `all` forms.
type commonFlags struct {
	seed    *int64
	seconds *float64
	workdir *string
	spec    *string
}

func addWorkdir(fs *flag.FlagSet) *string {
	return fs.String("workdir", filepath.Join(".bench_build", "fixtures"), "fixture cache directory (one subdirectory per spec hash)")
}

func addCommon(fs *flag.FlagSet) commonFlags {
	return commonFlags{
		seed:    fs.Int64("seed", 1, "orders each workload's heads, chunks and probe bindings"),
		seconds: fs.Float64("seconds", DefaultSeconds, "measured window per run, extended to whole passes"),
		workdir: addWorkdir(fs),
		spec:    fs.String("spec", "full", "input size: full, or tiny for a seconds-long smoke run"),
	}
}

func runOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	c := addCommon(fs)
	workload := fs.String("workload", "", "one of "+fmt.Sprint(harness.Workloads))
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the span log to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *workload == "" {
		fmt.Fprintln(os.Stderr, "usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1> | bench all ... | bench compare <base> <new>")
		return 2
	}
	spec, err := harness.SpecByName(*c.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res, info, err := harness.Run(context.Background(), harness.Options{
		Workload: *workload, Seed: *c.seed, Seconds: *c.seconds, Trace: *traced != 0,
		WorkDir: *c.workdir, Spec: spec, TraceOut: *traceOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	infoLine, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(infoLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: verification failed:", info.Notes)
		return 1
	}
	return 0
}

func runFixtures(args []string) int {
	fs := flag.NewFlagSet("bench fixtures", flag.ContinueOnError)
	workdir := addWorkdir(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := harness.EnsureFixtures(*workdir, harness.FullSpec()); err != nil {
		fmt.Fprintln(os.Stderr, "bench fixtures:", err)
		return 1
	}
	return 0
}
