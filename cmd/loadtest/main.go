// Command loadtest measures a SPARQL endpoint's serving behavior under
// concurrent traffic: closed-loop (fixed client count, back-to-back
// requests) or open-loop (Poisson arrivals at a fixed rate) load with
// a weighted mix of probe shapes, reported as latency quantiles from a
// log-bucketed histogram plus throughput and error/shed counts.
//
// The target is either a live sparqld URL or an in-process endpoint
// (the same engine a sparqld would serve), so overload behavior can be
// measured with and without the network in the loop:
//
//	loadtest -url http://localhost:8890/ -clients 8 -duration 10s
//	loadtest -synthetic tiny -rate 500 -duration 10s
//	loadtest -snapshot world/yago.snap -sweep 1,2,4,8,16 -md
//
// A closed-loop sweep (-sweep) walks the client counts and prints the
// capacity curve; -max-inflight/-queue/-queue-timeout wrap an
// in-process target with the same admission control sparqld offers, so
// the shed-vs-collapse comparison in EXPERIMENTS.md reproduces without
// starting a server:
//
//	loadtest -synthetic paper -sweep 1,2,4,8,16 \
//	  -max-inflight 2 -queue 4 -queue-timeout 5ms -md
//
// Output is a JSON array on stdout by default; -md renders the
// EXPERIMENTS.md markdown table instead (use both to log one and paste
// the other).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/loadtest"
	"sofya/internal/synth"
)

func main() {
	var (
		url       = flag.String("url", "", "load-test a live sparqld at this base URL")
		kbPath    = flag.String("kb", "", "load-test an in-process endpoint over this N-Triples file")
		snapshot  = flag.String("snapshot", "", "load-test an in-process endpoint over this binary snapshot")
		synthetic = flag.String("synthetic", "", "load-test an in-process synthetic world: tiny | paper")
		side      = flag.String("side", "yago", "synthetic side: yago | dbp")

		rate     = flag.Float64("rate", 0, "open-loop Poisson arrival rate per second (0 = closed loop)")
		clients  = flag.Int("clients", 4, "closed-loop concurrency; open-loop outstanding-request cap")
		duration = flag.Duration("duration", 5*time.Second, "measured window per run")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "unmeasured warmup before each run")
		mix      = flag.String("mix", "", "probe mix weights, e.g. 'ask=4,scan=3,rand=2,distinct=1' (default mix when empty)")
		sweep    = flag.String("sweep", "", "closed-loop sweep over these client counts, e.g. '1,2,4,8,16'")
		seed     = flag.Int64("seed", 1, "probe-selection and arrival-schedule seed")

		maxInflight  = flag.Int("max-inflight", 0, "wrap an in-process target with admission control: concurrent-query cap (0 = off)")
		queue        = flag.Int("queue", 0, "admission wait-queue bound")
		queueTimeout = flag.Duration("queue-timeout", 0, "admission wait-queue timeout (0 = wait until a slot frees)")

		md = flag.Bool("md", false, "print the markdown table instead of JSON")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(1)
	}

	ep, err := buildTarget(*url, *kbPath, *snapshot, *synthetic, *side, *seed)
	if errors.As(err, &usageError{}) {
		fmt.Fprintln(os.Stderr, "loadtest:", err)
		os.Exit(2)
	} else if err != nil {
		fatal(err)
	}
	if *maxInflight > 0 {
		if *url != "" {
			fatal(fmt.Errorf("-max-inflight wraps an in-process target; a live server enforces its own admission flags"))
		}
		ep = endpoint.NewAdmission(ep, endpoint.Limits{
			MaxInFlight:  *maxInflight,
			Queue:        *queue,
			QueueTimeout: *queueTimeout,
		})
	}

	probes, err := loadtest.ParseMix(*mix)
	if err != nil {
		fatal(err)
	}
	cfg := loadtest.Config{
		Rate:     *rate,
		Clients:  *clients,
		Duration: *duration,
		Warmup:   *warmup,
		Mix:      probes,
		Seed:     *seed,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var results []loadtest.Result
	if *sweep != "" {
		counts, err := parseSweep(*sweep)
		if err != nil {
			fatal(err)
		}
		if *rate > 0 {
			fatal(fmt.Errorf("-sweep is a closed-loop client sweep; it excludes -rate"))
		}
		results, err = loadtest.Sweep(ctx, ep, cfg, counts)
		if err != nil {
			fatal(err)
		}
	} else {
		res, err := loadtest.Run(ctx, ep, cfg)
		if err != nil {
			fatal(err)
		}
		results = []loadtest.Result{*res}
	}

	if *md {
		fmt.Print(loadtest.MarkdownTable(results))
		return
	}
	out, err := loadtest.MarshalJSON(results)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// usageError is a flag value no switch knows: exit status 2, like the
// flag package's own refusals.
type usageError struct{ error }

// buildTarget resolves the endpoint under test: exactly one source.
func buildTarget(url, kbPath, snapshot, synthetic, side string, seed int64) (endpoint.Endpoint, error) {
	n := 0
	for _, s := range []string{url, kbPath, snapshot, synthetic} {
		if s != "" {
			n++
		}
	}
	if n != 1 {
		return nil, fmt.Errorf("need exactly one of -url, -kb, -snapshot, -synthetic")
	}
	switch {
	case url != "":
		return endpoint.NewClient("target", url, nil), nil
	case snapshot != "":
		k, err := kb.OpenSnapshot(snapshot)
		if err != nil {
			return nil, err
		}
		return endpoint.NewLocal(k, seed), nil
	case kbPath != "":
		k, err := kb.LoadFile("kb", kbPath)
		if err != nil {
			return nil, err
		}
		return endpoint.NewLocal(k, seed), nil
	default:
		spec, err := synth.SpecNamed(synthetic)
		if err != nil {
			return nil, usageError{fmt.Errorf("-synthetic: %w", err)}
		}
		k, err := synth.Generate(spec).Side(side)
		if err != nil {
			return nil, usageError{fmt.Errorf("-side: %w", err)}
		}
		return endpoint.NewLocal(k, seed), nil
	}
}

func parseSweep(arg string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sweep entry %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-sweep named no client counts")
	}
	return counts, nil
}
