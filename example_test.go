package sofya_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"sofya"
)

// Align one relation of the synthetic YAGO-like KB against the
// DBpedia-like KB, on the fly — the paper's core operation.
func ExampleAligner_AlignRelation() {
	world := sofya.Generate(sofya.TinyWorldSpec())
	k := sofya.NewLocalEndpoint(world.Yago, 1) // source KB K
	kp := sofya.NewLocalEndpoint(world.Dbp, 2) // target KB K'
	links := sofya.LinkView{Links: world.Links, KIsA: true}

	aligner := sofya.NewAligner(k, kp, links, sofya.UBSConfig())
	alignments, err := aligner.AlignRelation("http://yago-knowledge.org/resource/wasBornIn")
	if err != nil {
		log.Fatal(err)
	}
	for _, al := range sofya.AcceptedAlignments(alignments) {
		fmt.Printf("%s conf=%.2f\n", al.Rule, al.Confidence)
	}
	// Output:
	// dbpedia:birthPlace(x, y) ⇒ yago:wasBornIn(x, y) conf=1.00
}

// An alignment lives inside its caller's deadline: every probe goes out
// under the context, and once the context ends the alignment stops
// before its next probe and fails with the context's error.
func ExampleAligner_AlignRelationContext() {
	world := sofya.Generate(sofya.TinyWorldSpec())
	k := sofya.NewLocalEndpoint(world.Yago, 1)
	kp := sofya.NewLocalEndpoint(world.Dbp, 2)
	aligner := sofya.NewAligner(k, kp, sofya.LinkView{Links: world.Links, KIsA: true}, sofya.UBSConfig())
	const wasBornIn = "http://yago-knowledge.org/resource/wasBornIn"

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	alignments, err := aligner.AlignRelationContext(ctx, wasBornIn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(sofya.AcceptedAlignments(alignments)), "accepted")

	cancel() // the caller gives up: no probe is sent
	_, err = aligner.AlignRelationContext(ctx, wasBornIn)
	fmt.Println(errors.Is(err, context.Canceled))
	// Output:
	// 1 accepted
	// true
}

// Serve a KB as subject-hash shards behind one federating endpoint:
// the drop-in scale-out replacement for NewLocalEndpoint, with
// byte-identical answers at any shard count.
func ExampleNewShardedEndpoint() {
	world := sofya.Generate(sofya.TinyWorldSpec())
	const seed = 1
	local := sofya.NewLocalEndpoint(world.Yago, seed)
	sharded := sofya.NewShardedEndpoint(world.Yago, 3, seed)

	const probe = `SELECT ?x ?y WHERE {
		?x <http://yago-knowledge.org/resource/wasBornIn> ?y .
	} ORDER BY RAND() LIMIT 2`
	want, err := local.SelectCtx(context.Background(), probe)
	if err != nil {
		log.Fatal(err)
	}
	got, err := sharded.SelectCtx(context.Background(), probe)
	if err != nil {
		log.Fatal(err)
	}
	identical := len(got.Rows) == len(want.Rows)
	for i := range got.Rows {
		for j := range got.Rows[i] {
			identical = identical && got.Rows[i][j] == want.Rows[i][j]
		}
	}
	fmt.Printf("rows=%d identical-to-unsharded=%v\n", len(got.Rows), identical)
	// Output:
	// rows=2 identical-to-unsharded=true
}

// Persist a KB as a binary snapshot and reopen it by
// memory-mapping — the instant-restart path: no N-Triples parsing, no
// re-indexing, byte-identical query answers.
func ExampleOpenKBSnapshot() {
	dir, err := os.MkdirTemp("", "sofya-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	k := sofya.NewKB("demo")
	k.AddIRIs("http://x/Marie", "http://x/bornIn", "http://x/Warsaw")
	k.AddIRIs("http://x/Marie", "http://x/field", "http://x/Physics")
	path := filepath.Join(dir, "demo.snap")
	if err := k.WriteSnapshotFile(path); err != nil {
		log.Fatal(err)
	}

	reopened, err := sofya.OpenKBSnapshot(path)
	if err != nil {
		log.Fatal(err)
	}
	ep := sofya.NewLocalEndpoint(reopened, 1)
	res, err := ep.SelectCtx(context.Background(), "SELECT ?p ?o WHERE { <http://x/Marie> ?p ?o }")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d facts served from snapshot\n", reopened.Name(), reopened.Size())
	for _, row := range res.Rows {
		fmt.Printf("%s -> %s\n", row[0].Value, row[1].Value)
	}
	// Output:
	// demo: 2 facts served from snapshot
	// http://x/bornIn -> http://x/Warsaw
	// http://x/field -> http://x/Physics
}

// The use case that motivates the paper: a query posed against K is
// answered by K' — its relation aligned on the fly, the query rewritten
// through the accepted alignment and the sameAs links, run on K', and the
// answers translated back and confirmed in K. examples/federated is this
// flow as a program; K' is incomplete, so not every answer it gives is
// one K knows.
func ExampleRewriter() {
	ctx := context.Background()
	world := sofya.Generate(sofya.TinyWorldSpec())
	k := sofya.NewLocalEndpoint(world.Yago, 1)
	kp := sofya.NewLocalEndpoint(world.Dbp, 2)
	links := sofya.LinkView{Links: world.Links, KIsA: true}
	const wasBornIn = "http://yago-knowledge.org/resource/wasBornIn"

	als, err := sofya.NewAligner(k, kp, links, sofya.UBSConfig()).AlignRelation(wasBornIn)
	if err != nil {
		log.Fatal(err)
	}
	rw := sofya.NewRewriter(links)
	rw.Add(als)
	rewritten, err := rw.RewriteString("SELECT ?who ?where WHERE { ?who <" + wasBornIn + "> ?where } LIMIT 5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rewritten)

	res, err := kp.SelectCtx(ctx, rewritten)
	if err != nil {
		log.Fatal(err)
	}
	confirmed := 0
	for _, row := range res.Rows {
		who, ok1 := links.ToK(row[0].Value)
		where, ok2 := links.ToK(row[1].Value)
		if !ok1 || !ok2 {
			continue
		}
		yes, err := k.AskCtx(ctx, fmt.Sprintf("ASK { <%s> <%s> <%s> }", who, wasBornIn, where))
		if err != nil {
			log.Fatal(err)
		}
		if yes {
			confirmed++
		}
	}
	fmt.Printf("%d of %d answers from K' confirmed in K\n", confirmed, len(res.Rows))
	// Output:
	// SELECT ?who ?where WHERE {
	//   ?who <http://dbpedia.org/property/birthPlace> ?where .
	// }
	// LIMIT 5
	// 4 of 5 answers from K' confirmed in K
}
