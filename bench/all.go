package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"

	"sofya/bench/harness"
)

// Stat is one metric over the repeats of `bench all`: the median is
// what compare reads, the quartiles give the run-to-run spread.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// WorkloadReport is one workload's part of a report file.
type WorkloadReport struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Infos     []*harness.Info `json:"infos"`
	EndToEnd  map[string]Stat `json:"end_to_end"`
	PerLayer  map[string]Stat `json:"per_layer"`
}

// Report is the file `bench all` writes and `bench compare` reads.
type Report struct {
	Seed      int64                      `json:"seed"`
	Repeat    int                        `json:"repeat"`
	Seconds   float64                    `json:"seconds"`
	Spec      string                     `json:"spec"`
	P         int                        `json:"p"`
	NProc     int                        `json:"nproc"`
	GoVersion string                     `json:"go_version"`
	Workloads map[string]*WorkloadReport `json:"workloads"`
}

// quartiles returns the median and the first and third quartiles of xs
// by linear interpolation between order statistics (for one value, all
// three are that value).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

func runAll(args []string) int {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	c := addCommon(fs)
	out := fs.String("out", "", "write the report to this file")
	repeat := fs.Int("repeat", 1, "run the full set this many times and report medians and quartiles")
	traces := fs.String("traces", "", "directory to write trace_<workload>.json span logs into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *repeat < 1 {
		fmt.Fprintln(os.Stderr, "usage: bench all -seed <n> -out <file> [-repeat N] [-seconds S] [-spec full|tiny] [-traces dir]")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench all:", err)
		return 1
	}
	rep := &Report{
		Seed: *c.seed, Repeat: *repeat, Seconds: *c.seconds, Spec: *c.spec,
		P: harness.Concurrency(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Workloads: map[string]*WorkloadReport{},
	}
	ok := true
	for _, w := range harness.Workloads {
		wr := &WorkloadReport{Correct: true, EndToEnd: map[string]Stat{}, PerLayer: map[string]Stat{}}
		rep.Workloads[w] = wr
		runs := map[string][]float64{}
		for r := 0; r < *repeat; r++ {
			for _, traced := range []int{0, 1} {
				child := []string{
					"-workload", w, "-seed", strconv.FormatInt(*c.seed, 10),
					"-seconds", strconv.FormatFloat(*c.seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(traced), "-workdir", *c.workdir, "-spec", *c.spec,
				}
				if traced == 1 && *traces != "" && r == *repeat-1 {
					child = append(child, "-trace-out", fmt.Sprintf("%s/trace_%s.json", *traces, w))
				}
				res, info, err := runChild(self, child)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench all: %s (trace %d): %v\n", w, traced, err)
					wr.Correct, ok = false, false
					continue
				}
				wr.Infos = append(wr.Infos, info)
				wr.Correct = wr.Correct && res.Correct
				ok = ok && res.Correct
				if traced == 0 {
					wr.Attempted += res.Attempted
					wr.Failed += res.Failed
				}
				for name, m := range res.Metrics {
					runs[name] = append(runs[name], m.Value)
				}
			}
		}
		fill := func(defs []harness.MetricDef, into map[string]Stat) {
			for _, d := range defs {
				if vs := runs[d.Name]; len(vs) > 0 {
					q1, med, q3 := quartiles(vs)
					into[d.Name] = Stat{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, Runs: vs}
				}
			}
		}
		fill(harness.EndToEnd, wr.EndToEnd)
		fill(harness.PerLayer, wr.PerLayer)
		printWorkload(w, wr)
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench all:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench all: verification failed")
		return 1
	}
	return 0
}

// runChild runs one workload run in its own process (so rss_peak_mb and
// the runtime counters are that workload's alone) and parses the info
// and result lines it prints last.
func runChild(self string, args []string) (*harness.Result, *harness.Info, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		if runErr != nil {
			return nil, nil, runErr
		}
		return nil, nil, fmt.Errorf("child printed no result")
	}
	var info struct {
		Info *harness.Info `json:"info"`
	}
	var res harness.Result
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return nil, nil, fmt.Errorf("parsing info line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("parsing result line: %w", err)
	}
	// A child that printed a result but exited non-zero failed
	// verification; its result says so.
	return &res, info.Info, nil
}

func printWorkload(name string, wr *WorkloadReport) {
	fmt.Printf("\n== %s  correct=%t attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
	show := func(defs []harness.MetricDef, stats map[string]Stat) {
		for _, d := range defs {
			s, ok := stats[d.Name]
			if !ok {
				continue
			}
			if len(s.Runs) > 1 {
				fmt.Printf("  %-40s %14.4f %-6s [q1 %.4f, q3 %.4f, n=%d]\n", d.Name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Runs))
			} else {
				fmt.Printf("  %-40s %14.4f %s\n", d.Name, s.Median, s.Unit)
			}
		}
	}
	show(harness.EndToEnd, wr.EndToEnd)
	show(harness.PerLayer, wr.PerLayer)
}
