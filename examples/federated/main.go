// Federated query rewriting: the use case that motivates SOFYA's
// introduction. A query arrives against YAGO; its relation is aligned
// on the fly against DBpedia; the query is rewritten and executed on
// the DBpedia endpoint, with entity constants translated through the
// sameAs links. The example verifies that the rewritten query returns
// answers that translate back to the original query's answers.
//
// In production the endpoints would not be rebuilt from scratch per
// process: a KB persisted with WriteSnapshotFile (or cmd/kbgen
// -snapshot) reopens by mmap in milliseconds via
// sofya.OpenKBSnapshot(path), and a subject-hash shard set reloads
// behind one federating endpoint via
// sofya.NewShardedEndpointFromSnapshots(seed, paths...) — both answer
// byte-identically to the endpoints built here.
package main

import (
	"context"
	"fmt"
	"log"

	"sofya"
)

func main() {
	ctx := context.Background()
	world := sofya.Generate(sofya.TinyWorldSpec())
	k := sofya.NewLocalEndpoint(world.Yago, 1)
	kp := sofya.NewLocalEndpoint(world.Dbp, 2)
	links := sofya.LinkView{Links: world.Links, KIsA: true}

	// 1. a query over YAGO arrives
	const query = `SELECT ?who ?where WHERE {
		?who <http://yago-knowledge.org/resource/wasBornIn> ?where .
	} LIMIT 5`
	fmt.Println("original query (YAGO):")
	fmt.Println(" ", query)

	// 2. align its relation against DBpedia, on the fly
	aligner := sofya.NewAligner(k, kp, links, sofya.UBSConfig())
	als, err := aligner.AlignRelation("http://yago-knowledge.org/resource/wasBornIn")
	if err != nil {
		log.Fatal(err)
	}
	accepted := sofya.AcceptedAlignments(als)
	if len(accepted) == 0 {
		log.Fatal("no alignment found")
	}
	fmt.Printf("\ndiscovered: %s (confidence %.2f)\n", accepted[0].Rule, accepted[0].Confidence)

	// 3. rewrite and run on DBpedia
	rw := sofya.NewRewriter(links)
	rw.Add(als)
	rewritten, err := rw.RewriteString(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrewritten query (DBpedia):")
	fmt.Println(rewritten)

	res, err := kp.SelectCtx(ctx, rewritten)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanswers from DBpedia (%d rows):\n", len(res.Rows))
	matched := 0
	for _, row := range res.Rows {
		who, where := row[0], row[1]
		// translate the DBpedia answers back into YAGO identifiers and
		// check them against the original KB
		yWho, ok1 := links.ToK(who.Value)
		yWhere, ok2 := links.ToK(where.Value)
		confirm := ""
		if ok1 && ok2 {
			ask := fmt.Sprintf(
				"ASK { <%s> <http://yago-knowledge.org/resource/wasBornIn> <%s> }", yWho, yWhere)
			if yes, err := k.AskCtx(ctx, ask); err == nil && yes {
				confirm = "  (confirmed in YAGO)"
				matched++
			}
		}
		fmt.Printf("  %s — %s%s\n", who.Value, where.Value, confirm)
	}
	fmt.Printf("\n%d/%d answers confirmed against the original KB\n", matched, len(res.Rows))
}
