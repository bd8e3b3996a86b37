package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sofya/bench/harness"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// relSpread is a stat's interquartile range as a share of its median.
func relSpread(s Stat) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// judge compares new against base for a metric whose regression bound
// is d.Bound. worsening is the change in the bad direction as a share
// of the base median. Where either side's run-to-run spread exceeds the
// bound, the comparison cannot resolve a change of that size and says
// so instead of calling it unchanged.
func judge(d harness.MetricDef, base, new Stat) (worsening float64, verdict string) {
	if base.Median != 0 {
		worsening = (new.Median - base.Median) / base.Median
		if d.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case relSpread(base) > d.Bound || relSpread(new) > d.Bound:
		verdict = verdictUnresolved
	case worsening > d.Bound:
		verdict = verdictWorse
	case worsening < -d.Bound:
		verdict = verdictBetter
	default:
		verdict = verdictSame
	}
	return
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare <base.json> <new.json>")
		return 2
	}
	base, err := loadReport(args[0])
	if err == nil {
		var next *Report
		if next, err = loadReport(args[1]); err == nil {
			if compareReports(os.Stdout, base, next) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// compareReports prints the end-to-end verdict table and the per-layer
// delta table, and reports whether new is acceptable: no metric worse,
// no rise in failures, every workload present and correct.
func compareReports(w io.Writer, base, next *Report) bool {
	ok := true
	fmt.Fprintf(w, "base: seed %d, %d repeat(s), %gs windows, P=%d, %s\n", base.Seed, base.Repeat, base.Seconds, base.P, base.GoVersion)
	fmt.Fprintf(w, "new:  seed %d, %d repeat(s), %gs windows, P=%d, %s\n\n", next.Seed, next.Repeat, next.Seconds, next.P, next.GoVersion)
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, name := range harness.Workloads {
		b, n := base.Workloads[name], next.Workloads[name]
		if b == nil || n == nil {
			fmt.Fprintf(w, "%-18s missing from one side\n", name)
			ok = false
			continue
		}
		for _, d := range harness.EndToEnd {
			bs, ns := b.EndToEnd[d.Name], n.EndToEnd[d.Name]
			worsening, verdict := judge(d, bs, ns)
			if verdict == verdictWorse {
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f %8.3f %6.0f%%  %s (%+.1f%% worse)\n",
				name, d.Name, bs.Median, ns.Median, ratio(ns.Median, bs.Median), d.Bound*100, verdict, worsening*100)
		}
		bf, nf := failRatio(b), failRatio(n)
		verdict := verdictSame
		if nf > bf || !n.Correct {
			verdict, ok = verdictWorse, false
		}
		fmt.Fprintf(w, "%-18s %-16s %14.6f %14.6f %8s %7s  %s\n", name, "fail_ratio", bf, nf, "", "0 abs", verdict)
	}

	fmt.Fprintf(w, "\nper-layer deltas (traced runs; no bounds — they explain, they do not gate)\n")
	fmt.Fprintf(w, "%-18s %-40s %14s %14s %8s\n", "workload", "metric", "base", "new", "new/base")
	for _, name := range harness.Workloads {
		b, n := base.Workloads[name], next.Workloads[name]
		if b == nil || n == nil {
			continue
		}
		for _, d := range harness.PerLayer {
			bs, ns := b.PerLayer[d.Name], n.PerLayer[d.Name]
			if bs.Median == 0 && ns.Median == 0 {
				continue
			}
			fmt.Fprintf(w, "%-18s %-40s %14.4f %14.4f %8.3f\n", name, d.Name, bs.Median, ns.Median, ratio(ns.Median, bs.Median))
		}
	}
	return ok
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func failRatio(w *WorkloadReport) float64 {
	if w.Attempted == 0 {
		return 0
	}
	return float64(w.Failed) / float64(w.Attempted)
}
