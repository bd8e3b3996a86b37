package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

func raceKB(n int) *kb.KB {
	k := kb.New("race")
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("http://x/s%03d", i)
		k.AddIRIs(s, "http://x/p", fmt.Sprintf("http://x/o%d", i))
		k.AddIRIs(s, "http://x/q", fmt.Sprintf("http://x/v%d", i%7))
	}
	return k
}

// Concurrent fan-outs over one Group: mixed Select / Ask / Stream
// traffic, with streams closed mid-flight, must be race-free and
// deterministic per call.
func TestGroupConcurrentFanout(t *testing.T) {
	g := Partitioned(raceKB(120), 3, 1)
	local := endpoint.NewLocal(raceKB(120), 1)

	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 9")
	if err != nil {
		t.Fatal(err)
	}
	wantText := renderResult(want)

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0: // prepared probe, full drain
				res, err := pq.SelectCtx(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(9))
				if err != nil {
					errs <- err
					return
				}
				if renderResult(res) != wantText {
					errs <- fmt.Errorf("worker %d: probe diverged", i)
				}
			case 1: // streamed fan-out, closed mid-flight
				rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"), sparql.IntArg(9))
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < 3 && rows.Next(); j++ {
				}
				rows.Close()
				if rows.Err() != nil {
					errs <- rows.Err()
				}
			default: // text traffic
				if _, err := g.SelectCtx(context.Background(), "SELECT ?x ?y WHERE { ?x <http://x/q> ?y } LIMIT 5"); err != nil {
					errs <- err
					return
				}
				if _, err := g.AskCtx(context.Background(), "ASK { ?x <http://x/p> ?y }"); err != nil {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Concurrent unordered merge streams share nothing: each caller owns
// its shard streams, so interleaved pulls and early closes across
// goroutines stay independent.
func TestGroupConcurrentStreams(t *testing.T) {
	g := Partitioned(raceKB(200), 7, 1)
	pq, err := g.Prepare("SELECT ?x ?y WHERE { ?x $r ?y }", "r")
	if err != nil {
		t.Fatal(err)
	}
	var reference []string
	{
		rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
			reference = append(reference, rowKey(rows.Row()))
		}
		rows.Close()
	}

	const workers = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := pq.Stream(context.Background(), sparql.IRIArg("http://x/p"))
			if err != nil {
				errs <- err
				return
			}
			defer rows.Close()
			stop := len(reference)
			if i%2 == 1 {
				stop = i * 3 // close early at staggered depths
			}
			for j := 0; j < stop && rows.Next(); j++ {
				if rowKey(rows.Row()) != reference[j] {
					errs <- fmt.Errorf("worker %d: row %d diverged", i, j)
					return
				}
			}
			if err := rows.Err(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
