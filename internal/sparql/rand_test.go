package sparql

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
	"testing"

	"sofya/internal/kb"
)

// rand_test.go covers the RAND() stream's plumbing: the pooled PRNG
// state (randSource) and the cost of the sampling-probe shape it feeds
// (streamOrdered's OfferDraw branch).

// TestPooledRandStreamIdentical holds the pooled stream to its
// definition, written out here the way the reference engine writes it:
// a fresh standard source seeded with seed*1_000_003 XOR the FNV-64a of
// the text. A recycled state must give the same draws whatever its
// previous holder did with it.
func TestPooledRandStreamIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		// Dirty a state and hand it back: the next randSource on this
		// goroutine is likely to get it.
		prior := randSource(rng.Int63(), "prior")
		for j := rng.Intn(700); j > 0; j-- {
			if j%3 == 0 {
				prior.Int63()
			} else {
				prior.Float64()
			}
		}
		randPool.Put(prior)

		seed := rng.Int63() - 1<<62
		text := fmt.Sprintf("SELECT ?x WHERE { ?x <http://x/p%d> ?y } ORDER BY RAND() LIMIT %d", rng.Intn(50), i)
		h := fnv.New64a()
		io.WriteString(h, text)
		want := rand.New(rand.NewSource(seed*1_000_003 ^ int64(h.Sum64())))

		got := randSource(seed, text)
		for d := 0; d < 256; d++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("pair %d, draw %d: pooled stream gives %v, a fresh source %v", i, d, g, w)
			}
		}
		randPool.Put(got)
	}
}

// TestConcurrentRandStreams runs the sampling probe from many
// goroutines at once, half of them abandoning their stream after one
// row: each execution's PRNG goes back to the pool when its stream
// ends, and a state still in use must never be handed out again.
func TestConcurrentRandStreams(t *testing.T) {
	k := benchKB(500)
	e := NewEngineSeeded(k, 3)
	p, err := e.Prepare(MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n"))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, 8)
	for n := range want {
		if want[n], err = p.Exec(IRIArg("http://b/p"), IntArg(n+2)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				n := (g + round) % len(want)
				it, err := p.Iter(IRIArg("http://b/p"), IntArg(n+2))
				if err != nil {
					t.Error(err)
					return
				}
				keep := len(want[n].Rows)
				if (g+round)%2 == 0 {
					keep = 1 // close early
				}
				for i := 0; i < keep; i++ {
					if !it.Next() {
						t.Errorf("LIMIT %d stream ended at row %d: %v", n+2, i, it.Err())
						break
					}
					if it.Row()[0] != want[n].Rows[i][0] || it.Row()[1] != want[n].Rows[i][1] {
						t.Errorf("LIMIT %d stream diverged at row %d", n+2, i)
						break
					}
				}
				it.Close()
			}
		}(g)
	}
	wg.Wait()
}

// TestAllocCeilingRandSample pins the typed selector's bound: an ORDER
// BY RAND() LIMIT 200 execution holds 200 rows however many match, so
// it allocates the same over a 10³- and a 10⁵-fact relation — a
// selector that buffered every match would not.
func TestAllocCeilingRandSample(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	allocs := func(k *kb.KB) float64 {
		p, err := NewEngineSeeded(k, 1).Prepare(MustParseTemplate(
			"SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n"))
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := p.Exec(IRIArg("http://b/p"), IntArg(200))
			if err != nil || len(res.Rows) != 200 {
				t.Fatalf("sample: %d rows, %v", len(res.Rows), err)
			}
		}
		run() // fill the PRNG pool
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(benchKB(1_000)), allocs(benchKB(100_000))
	if small != large {
		t.Fatalf("%.0f allocs/op over 10³ facts, %.0f over 10⁵: the selection is not bounded by the LIMIT", small, large)
	}
	// 200 result rows, the result slice's growth steps, the selector and
	// arena's, and the execution's fixed state.
	if large > 260 {
		t.Fatalf("%.0f allocs/op, ceiling 260", large)
	}
	t.Logf("%.0f allocs/op", large)
}
