// Command sofya aligns relations between two knowledge bases reachable
// through SPARQL endpoints, reproducing the paper's on-the-fly setting.
//
// Either generate the synthetic evaluation world:
//
//	sofya -synthetic tiny -relation http://yago-knowledge.org/resource/wasBornIn
//
// or load two KB files plus a sameAs link file (two IRIs per line,
// tab-separated, head-KB entity first). A KB file is either N-Triples
// or a binary snapshot written by cmd/kbgen -snapshot / KB.WriteSnapshot
// (*.snap) — snapshots are memory-mapped and skip parsing entirely, so
// repeated runs start in milliseconds:
//
//	sofya -k yago.nt -kprime dbpedia.nt -links links.tsv -relation <iri>
//	sofya -k yago.snap -kprime dbpedia.snap -links links.tsv -all
//
// (N-Triples KBs are labeled "K" / "Kprime" in rule output; a snapshot
// keeps the KB name it was written with, e.g. "yago".)
//
// With -all, every relation of the head KB is aligned. With -batch,
// the requested relations align concurrently (bounded by -parallel)
// over caching endpoint decorators, which deduplicate the endpoint
// traffic the concurrent aligners share; output order and
// content match the sequential run.
//
// With -candidates, each relation's candidate universe is pruned to the
// candidate index's top-k (-topk) before validation — the sub-linear
// path for large target inventories. Without it the aligner runs in
// exact mode, byte-identical to builds predating the index. -candidx
// points the aligner at a candidate-index sidecar written by kbgen
// -candidates: when its fingerprint matches the target inventory and
// options the index is restored without any sampling, and a missing,
// corrupt or stale sidecar falls back to a fresh build. -maxpostings
// caps the index's per-gram posting lists (experiment E9 measures the
// recall cost).
//
// A flag the others make the run ignore (-topk without -candidates,
// -relation with -all, -k with -synthetic, ...) is a usage error.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sameas"
	"sofya/internal/sampling"
	"sofya/internal/shard"
	"sofya/internal/synth"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its surroundings passed in, ctx ending at SIGINT or
// SIGTERM: it writes alignments to stdout and diagnostics to stderr,
// and returns the exit status — 2 for a usage error, 1 for a failed run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sofya", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		synthetic = fs.String("synthetic", "", "generate a synthetic world: tiny | paper")
		direction = fs.String("direction", "d2y", "synthetic direction: d2y (dbp⊂yago) | y2d")
		kPath     = fs.String("k", "", "N-Triples file of the head-side KB K")
		kpPath    = fs.String("kprime", "", "N-Triples file of the body-side KB K'")
		linkPath  = fs.String("links", "", "sameAs links file: K-IRI<TAB>K'-IRI per line")
		relation  = fs.String("relation", "", "relation IRI of K to align")
		all       = fs.Bool("all", false, "align every relation of K")
		method    = fs.String("method", "ubs", "method: pca | cwa | ubs")
		samples   = fs.Int("samples", 10, "sample size (subject entities)")
		shards    = fs.Int("shards", 1, "partition each KB into this many subject-hash shards behind a federating endpoint group (results are identical at any setting)")
		parallel  = fs.Int("parallel", 0, "pipeline worker bound (0 = GOMAXPROCS)")
		batch     = fs.Bool("batch", false, "align relations concurrently over shared caching endpoints")
		cands     = fs.Bool("candidates", false, "prune each relation's candidate universe to the candidate index's top-k (internal/candidates); off = exact mode")
		topk      = fs.Int("topk", 16, "candidate top-k when -candidates is set")
		candidx   = fs.String("candidx", "", "candidate-index sidecar (kbgen -candidates); loaded instead of sampling when its fingerprint matches, rebuilt otherwise")
		maxpost   = fs.Int("maxpostings", 0, "cap candidate-index posting lists at this many relations per gram (0 = uncapped; recall cost measured by experiment E9)")
		verbose   = fs.Bool("v", false, "trace aligner decisions")
		rejected  = fs.Bool("rejected", false, "also print rejected candidates")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sofya: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sofya:", err)
		return 1
	}
	// A flag given on the command line that the others make the run
	// ignore is refused, not dropped in silence.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, c := range []struct {
		flags   []string
		why     string
		ignored bool
	}{
		{[]string{"topk", "candidx", "maxpostings"}, "without -candidates", !*cands},
		{[]string{"relation"}, "with -all", *all},
		{[]string{"k", "kprime", "links"}, "with -synthetic", *synthetic != ""},
		{[]string{"direction"}, "without -synthetic", *synthetic == ""},
	} {
		for _, f := range c.flags {
			if c.ignored && set[f] {
				return usage("-%s is ignored %s: drop it", f, c.why)
			}
		}
	}

	var cfg core.Config
	switch strings.ToLower(*method) {
	case "pca":
		cfg = core.DefaultConfig()
	case "cwa":
		cfg = core.CWAConfig()
	case "ubs":
		cfg = core.UBSConfig()
	default:
		return usage("unknown -method %q: want pca, cwa or ubs", *method)
	}
	if *direction != "d2y" && *direction != "y2d" {
		return usage("unknown -direction %q: want d2y or y2d", *direction)
	}
	var world *synth.Spec // nil: the KBs come from files
	if *synthetic != "" {
		spec, err := synth.SpecNamed(*synthetic)
		if err != nil {
			return usage("-synthetic: %v", err)
		}
		world = &spec
	}
	cfg.SampleSize = *samples
	cfg.Parallelism = *parallel
	if *cands {
		cfg.CandidateTopK = *topk
		cfg.CandidateIndexPath = *candidx
		cfg.CandidateMaxPostings = *maxpost
	}
	if *verbose {
		cfg.Trace = func(format string, args ...any) {
			fmt.Fprintf(stderr, "# "+format+"\n", args...)
		}
	}

	k, kp, links, err := loadKBs(world, *direction, *kPath, *kpPath, *linkPath)
	if err != nil {
		return fail(err)
	}

	// Each KB serves unsharded, or split into subject-hash shards behind
	// a federating group; either way the aligner sees one Endpoint and
	// produces identical output.
	endpointOf := func(base *kb.KB, seed int64) endpoint.Endpoint {
		if *shards > 1 {
			return shard.Partitioned(base, *shards, seed)
		}
		return endpoint.NewLocal(base, seed)
	}
	epK := endpointOf(k, 1)
	epKP := endpointOf(kp, 2)

	// In batch mode the aligner speaks to memoized endpoints: a
	// Caching decorator runs each distinct query once — concurrent
	// relations that issue it together share the one execution, later
	// ones find it stored.
	var qK, qKP endpoint.Endpoint = epK, epKP
	var cacheK, cacheKP *endpoint.Caching
	if *batch {
		cacheK = endpoint.NewCaching(epK, 0)
		cacheKP = endpoint.NewCaching(epKP, 0)
		qK, qKP = cacheK, cacheKP
	}
	aligner := core.New(qK, qKP, links, cfg)

	var heads []string
	switch {
	case *all:
		for _, p := range k.Relations() {
			heads = append(heads, k.Term(p).Value)
		}
	case *relation != "":
		heads = []string{*relation}
	default:
		return usage("need -relation <iri> or -all")
	}

	var results [][]core.Alignment
	if *batch {
		var err error
		results, err = aligner.AlignRelationsContext(ctx, heads)
		if err != nil {
			return fail(err)
		}
	} else {
		for _, head := range heads {
			als, err := aligner.AlignRelationContext(ctx, head)
			if err != nil {
				return fail(err)
			}
			results = append(results, als)
		}
	}

	for _, als := range results {
		for _, al := range als {
			if !al.Accepted && !*rejected {
				continue
			}
			status := "ACCEPT"
			if !al.Accepted {
				status = "reject"
			}
			equiv := ""
			if al.Equivalent {
				equiv = "  [equivalent]"
			}
			fmt.Fprintf(stdout, "%s  %s  conf=%.2f pca=%.2f cwa=%.2f support=%d/%d contradictions=%d%s\n",
				status, al.Rule, al.Confidence, al.PCA, al.CWA,
				al.Support, al.Evidence, al.Contradictions, equiv)
		}
	}
	statsOf := func(ep endpoint.Endpoint) endpoint.Stats {
		if sr, ok := ep.(endpoint.StatsReporter); ok {
			return sr.Stats()
		}
		return endpoint.Stats{}
	}
	sK, sKP := statsOf(epK), statsOf(epKP)
	fmt.Fprintf(stderr, "# queries: K=%d K'=%d rows: K=%d K'=%d\n",
		sK.Queries, sKP.Queries, sK.Rows, sKP.Rows)
	if *batch {
		csK, csKP := cacheK.CacheStats(), cacheKP.CacheStats()
		fmt.Fprintf(stderr, "# cache hits: K=%d/%d K'=%d/%d\n",
			csK.Hits, csK.Hits+csK.Misses, csKP.Hits, csKP.Hits+csKP.Misses)
	}
	return 0
}

func loadKBs(world *synth.Spec, direction, kPath, kpPath, linkPath string) (*kb.KB, *kb.KB, sampling.Translator, error) {
	if world != nil {
		w := synth.Generate(*world)
		if direction == "y2d" {
			return w.Dbp, w.Yago, sampling.LinkView{Links: w.Links, KIsA: false}, nil
		}
		return w.Yago, w.Dbp, sampling.LinkView{Links: w.Links, KIsA: true}, nil
	}
	if kPath == "" || kpPath == "" || linkPath == "" {
		return nil, nil, nil, fmt.Errorf("need -k, -kprime and -links (or -synthetic)")
	}
	k, err := loadKB("K", kPath)
	if err != nil {
		return nil, nil, nil, err
	}
	kp, err := loadKB("Kprime", kpPath)
	if err != nil {
		return nil, nil, nil, err
	}
	links, err := loadLinks(linkPath)
	if err != nil {
		return nil, nil, nil, err
	}
	return k, kp, sampling.LinkView{Links: links, KIsA: true}, nil
}

// loadKB reads a KB file: *.snap files are memory-mapped binary
// snapshots (kb.OpenSnapshot, no parsing), anything else is N-Triples.
// A per-shard snapshot is refused — it holds a fraction of the KB (but
// whole-KB planner stats) and would align confidently wrong.
func loadKB(name, path string) (*kb.KB, error) {
	if strings.HasSuffix(path, ".snap") {
		k, err := kb.OpenSnapshot(path)
		if err != nil {
			return nil, err
		}
		if _, n, ok := shard.PartitionIndex(k.Name()); ok && n > 1 {
			return nil, fmt.Errorf("%s holds shard %q of a %d-shard set, not a whole KB", path, k.Name(), n)
		}
		return k, nil
	}
	return kb.LoadFile(name, path)
}

func loadLinks(path string) (*sameas.Links, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	links := sameas.New()
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want two tab-separated IRIs", path, line)
		}
		links.Add(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}
	return links, sc.Err()
}
