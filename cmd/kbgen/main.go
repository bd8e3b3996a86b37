// Command kbgen generates the synthetic YAGO/DBpedia evaluation world
// and writes it to disk: two N-Triples files, the sameAs link file
// consumed by cmd/sofya, the gold-standard alignment pairs, and the
// relation/report sidecars cmd/experiments needs to reload the world.
//
//	kbgen -spec paper -out ./world
//
// With -snapshot, each KB is also written as a binary snapshot (*.snap)
// that kb.OpenSnapshot serves by memory-mapping — cmd/sparqld, cmd/sofya
// and cmd/experiments restart from snapshots without re-parsing or
// re-indexing. With -shards n, each KB is also written as n subject-hash
// shard snapshots (<kb>-shard-<i>-of-<n>.snap, with or without
// -snapshot), each embedding the whole KB's planner statistics, so a
// complete set restarts as a federation group:
//
//	kbgen -spec paper -out ./world -snapshot -shards 3
//	sparqld -snapshot './world/yago-shard-*-of-3.snap'
//	experiments -world ./world -e table1
//
// With -candidates, a candidate-index sidecar (<kb>-candidates.idx) is
// additionally written for each alignment direction, so cmd/sofya
// -candidates -candidx skips the per-relation sampling pass on start
// the same way snapshots skip the N-Triples parse:
//
//	kbgen -spec paper -out ./world -snapshot -candidates
//	sofya -k world/yago.snap -kprime world/dbpedia.snap -links world/links.tsv \
//	      -all -candidates -candidx world/dbpedia-candidates.idx
//
// The sidecar is fingerprinted against the target inventory and index
// options; consumers fall back to a fresh build when it is stale. It is
// sampled through endpoint seed 2 — cmd/sofya's K' default — so the
// loaded index is the one sofya would have built.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sampling"
	"sofya/internal/synth"
)

func main() {
	var (
		specName = flag.String("spec", "tiny", "world size: tiny | paper")
		out      = flag.String("out", ".", "output directory")
		seed     = flag.Int64("seed", 0, "override the spec's seed (0 keeps default)")
		shards   = flag.Int("shards", 1, "additionally write each KB partitioned into this many self-contained subject-hash shard snapshots (kb-shard-i-of-n.snap)")
		snapshot = flag.Bool("snapshot", false, "also write each whole KB as a binary snapshot (*.snap) loadable by mmap")
		cands    = flag.Bool("candidates", false, "also write candidate-index sidecars (<kb>-candidates.idx) for both alignment directions, loadable by sofya -candidx")
		parallel = flag.Int("parallel", 0, "sampling fan-out for -candidates index builds (0 = GOMAXPROCS)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "kbgen:", err)
		os.Exit(1)
	}

	spec, err := synth.SpecNamed(*specName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kbgen: -spec:", err)
		os.Exit(2)
	}
	if *seed != 0 {
		spec.Seed = *seed
	}
	w := synth.Generate(spec)

	if err := synth.SaveWorld(w, *out, synth.SaveOptions{Snapshots: *snapshot, Shards: *shards}); err != nil {
		fatal(err)
	}
	if *cands {
		// One sidecar per alignment direction: the index is over the
		// body-side (target) inventory, translated through the links as
		// that direction's aligner will sample it.
		for _, dir := range []struct {
			target *kb.KB
			links  sampling.LinkView
		}{
			{w.Dbp, sampling.LinkView{Links: w.Links, KIsA: true}},   // yago ⇐ dbpedia (sofya d2y)
			{w.Yago, sampling.LinkView{Links: w.Links, KIsA: false}}, // dbpedia ⇐ yago (sofya y2d)
		} {
			path, err := writeCandidateIndex(*out, dir.target, dir.links, *parallel)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
	fmt.Printf("wrote %s: yago %d facts / %d relations, dbpedia %d facts / %d relations, %d links, %d gold pairs\n",
		*out, w.Report.YagoFacts, len(w.Report.YagoRelations),
		w.Report.DbpFacts, len(w.Report.DbpRelations),
		w.Report.SameAsLinks, len(w.Truth.DbpToYago)+len(w.Truth.YagoToDbp))
}

// writeCandidateIndex builds the candidate index over target (sampling
// through endpoint seed 2, cmd/sofya's K'-side default, so the sidecar
// reproduces the index sofya would build) and writes it atomically as
// <out>/<kbname>-candidates.idx.
func writeCandidateIndex(out string, target *kb.KB, links sampling.LinkView, parallel int) (string, error) {
	ep := endpoint.NewLocal(target, 2)
	rels, err := candidates.Relations(ep)
	if err != nil {
		return "", err
	}
	ix, err := candidates.Build(ep, rels, links, candidates.Options{Parallelism: parallel})
	if err != nil {
		return "", err
	}
	path := filepath.Join(out, target.Name()+"-candidates.idx")
	if err := ix.WriteIndexFile(path); err != nil {
		return "", err
	}
	return path, nil
}
