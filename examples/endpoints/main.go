// Remote, access-restricted endpoints: runs the alignment across a real
// HTTP boundary. The DBpedia-like KB is served over the SPARQL protocol
// with a public-endpoint-style quota (row cap + query budget); the
// aligner consumes it through an HTTP client, exactly as it would a
// public LOD endpoint. Demonstrates both the protocol layer and quota
// exhaustion handling.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"

	"sofya"
	"sofya/internal/endpoint"
)

func main() {
	world := sofya.Generate(sofya.TinyWorldSpec())

	// serve DBpedia over HTTP with a row cap and a query budget
	restricted := sofya.NewRestrictedEndpoint(world.Dbp, 2, sofya.Quota{
		MaxRows:    10000,
		MaxQueries: 2000,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: sofya.NewSPARQLServer(restricted)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	url := "http://" + ln.Addr().String()
	fmt.Println("serving DBpedia-like KB at", url)

	// the aligner sees only the HTTP client
	k := sofya.NewLocalEndpoint(world.Yago, 1)
	remote := sofya.NewSPARQLClient("dbpedia", url)
	links := sofya.LinkView{Links: world.Links, KIsA: true}
	aligner := sofya.NewAligner(k, remote, links, sofya.UBSConfig())

	for _, rel := range []string{
		"http://yago-knowledge.org/resource/directedBy",
		"http://yago-knowledge.org/resource/created",
	} {
		als, err := aligner.AlignRelation(rel)
		if err != nil {
			log.Fatal(err)
		}
		for _, al := range sofya.AcceptedAlignments(als) {
			fmt.Printf("over HTTP: %s  conf=%.2f\n", al.Rule, al.Confidence)
		}
	}
	st := restricted.Stats()
	fmt.Printf("server handled %d queries, returned %d rows, %d truncations\n",
		st.Queries, st.Rows, st.Truncations)

	// quota exhaustion surfaces as a typed error through the client
	restricted.SetQuota(sofya.Quota{MaxQueries: st.Queries}) // budget spent
	_, err = remote.SelectCtx(context.Background(), `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`)
	if errors.Is(err, endpoint.ErrQuotaExceeded) {
		fmt.Println("further queries denied:", err)
	} else {
		log.Fatalf("expected quota error, got %v", err)
	}
}
