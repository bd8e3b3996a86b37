// Quickstart: generate the synthetic YAGO/DBpedia world, build two
// endpoints, align one relation on the fly, align a whole batch
// concurrently over decorated endpoints, then restart a KB instantly
// from a binary snapshot — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"sofya"
)

func main() {
	// A deterministic synthetic world: a YAGO-like and a DBpedia-like KB
	// derived from the same ground truth, plus sameAs links.
	world := sofya.Generate(sofya.TinyWorldSpec())
	fmt.Printf("world: yago=%d facts, dbpedia=%d facts, %d sameAs links\n",
		world.Yago.Size(), world.Dbp.Size(), world.Links.Len())

	// SOFYA only ever talks SPARQL: wrap both KBs in endpoints.
	k := sofya.NewLocalEndpoint(world.Yago, 1) // source KB K
	kp := sofya.NewLocalEndpoint(world.Dbp, 2) // target KB K'
	links := sofya.LinkView{Links: world.Links, KIsA: true}

	// Align one relation with the paper's UBS method.
	aligner := sofya.NewAligner(k, kp, links, sofya.UBSConfig())
	alignments, err := aligner.AlignRelation("http://yago-knowledge.org/resource/wasBornIn")
	if err != nil {
		log.Fatal(err)
	}

	for _, al := range alignments {
		verdict := "rejected"
		if al.Accepted {
			verdict = "ACCEPTED"
		}
		kind := "subsumption"
		if al.Equivalent {
			kind = "equivalence"
		}
		fmt.Printf("%s (%s): %s  confidence=%.2f support=%d/%d\n",
			verdict, kind, al.Rule, al.Confidence, al.Support, al.Evidence)
	}

	// The whole run cost a handful of queries — no download.
	fmt.Printf("queries issued: K=%d, K'=%d\n", k.Stats().Queries, kp.Stats().Queries)

	// Batch alignment: align every YAGO relation concurrently. The
	// caching decorator runs identical queries issued at the same moment
	// once and memoizes the results, so the concurrent relations share
	// one stream of endpoint traffic. For fixed endpoint seeds the
	// results are identical to aligning each relation sequentially.
	k.ResetStats()
	kp.ResetStats()
	cacheK := sofya.NewCachingEndpoint(k, 0)
	cacheKP := sofya.NewCachingEndpoint(kp, 0)
	cfg := sofya.UBSConfig()
	cfg.Parallelism = 0 // 0 = GOMAXPROCS
	batch := sofya.NewAligner(cacheK, cacheKP, links, cfg)

	relations := world.Report.YagoRelations
	results, err := batch.AlignRelations(relations)
	if err != nil {
		log.Fatal(err)
	}
	accepted := 0
	for _, als := range results {
		accepted += len(sofya.AcceptedAlignments(als))
	}
	csK, csKP := cacheK.CacheStats(), cacheKP.CacheStats()
	fmt.Printf("batch: %d relations, %d accepted rules\n", len(relations), accepted)
	fmt.Printf("batch queries reaching the KBs: K=%d, K'=%d (cache hits K=%d, K'=%d)\n",
		k.Stats().Queries, kp.Stats().Queries, csK.Hits, csKP.Hits)

	// Snapshots: persist a KB once, restart it in milliseconds.
	// WriteSnapshotFile serializes the CSR index; OpenKBSnapshot
	// memory-maps them back — no N-Triples parsing, no re-indexing, and
	// every query (RAND() streams included) answers byte-identically to
	// the KB that wrote the file. cmd/kbgen -snapshot writes these for
	// whole KBs and for subject-hash shards (which reload behind a
	// federating endpoint via NewShardedEndpointFromSnapshots).
	dir, err := os.MkdirTemp("", "sofya-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "yago.snap")
	if err := world.Yago.WriteSnapshotFile(snap); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	reopened, err := sofya.OpenKBSnapshot(snap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot restart: %q (%d facts) serving again in %s (mmap=%v)\n",
		reopened.Name(), reopened.Size(), time.Since(start).Round(time.Microsecond), reopened.Mapped())
}
