package kb_test

import (
	"bytes"
	"fmt"
	"log"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

// A snapshot round trip: serialize a KB to its binary snapshot
// form and decode it back, preserving contents, iteration orders and
// statistics exactly. (OpenSnapshot is the file-backed twin that
// serves the arrays by memory-mapping instead of decoding.)
func ExampleKB_WriteSnapshot() {
	k := kb.New("people")
	k.AddIRIs("http://x/Ada", "http://x/bornIn", "http://x/London")
	k.Add(rdf.NewTriple(rdf.NewIRI("http://x/Ada"), rdf.NewIRI("http://x/label"), rdf.NewLiteral("Ada Lovelace")))

	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		log.Fatal(err)
	}
	got, err := kb.ReadSnapshot(&buf)
	if err != nil {
		log.Fatal(err)
	}
	triples := got.Triples()
	terms := make(map[rdf.Term]bool)
	for _, t := range triples {
		terms[t.S], terms[t.P], terms[t.O] = true, true, true
	}
	fmt.Printf("%s: %d triples, %d terms\n", got.Name(), got.Size(), len(terms))
	for _, t := range triples {
		fmt.Println(t)
	}
	// Output:
	// people: 2 triples, 5 terms
	// <http://x/Ada> <http://x/bornIn> <http://x/London> .
	// <http://x/Ada> <http://x/label> "Ada Lovelace" .
}
