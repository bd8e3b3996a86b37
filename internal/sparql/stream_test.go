package sparql

import (
	"fmt"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/synth"
)

func streamTestKB() *kb.KB {
	k := kb.New("stream")
	for i := 0; i < 12; i++ {
		k.AddIRIs(fmt.Sprintf("http://x/s%02d", i), "http://x/p", fmt.Sprintf("http://x/o%02d", i%5))
	}
	k.AddIRIs("http://x/s00", "http://x/q", "http://x/o00")
	k.Freeze()
	return k
}

// TestRowIterBasics exercises the iterator protocol: Vars, exhaustion,
// idempotent Close, and ASK rejection.
func TestRowIterBasics(t *testing.T) {
	e := NewEngine(streamTestKB())

	it, err := e.Stream(MustParse("SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY ?s ?o"))
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Vars(); len(got) != 2 || got[0] != "s" || got[1] != "o" {
		t.Fatalf("Vars = %v", got)
	}
	n := 0
	for it.Next() {
		if len(it.Row()) != 2 {
			t.Fatalf("row width = %d", len(it.Row()))
		}
		n++
	}
	if n != 12 {
		t.Fatalf("streamed %d rows, want 12", n)
	}
	if it.Err() != nil {
		t.Fatalf("Err = %v", it.Err())
	}
	if it.Next() {
		t.Fatal("Next after exhaustion")
	}
	it.Close() // idempotent after exhaustion

	if _, err := e.Stream(MustParse("ASK { ?s <http://x/p> ?o }")); err == nil {
		t.Fatal("Stream accepted an ASK query")
	}
}

// TestRowIterEarlyClose proves closing mid-result aborts cleanly and a
// second iterator is unaffected.
func TestRowIterEarlyClose(t *testing.T) {
	e := NewEngine(streamTestKB())
	const q = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY ?s ?o"
	want, err := e.EvalString(q)
	if err != nil {
		t.Fatal(err)
	}
	it, err := e.Stream(MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !it.Next() {
			t.Fatalf("stream ended at row %d", i)
		}
		for c := range it.Row() {
			if it.Row()[c] != want.Rows[i][c] {
				t.Fatalf("row %d col %d differs", i, c)
			}
		}
	}
	it.Close()
	if it.Next() {
		t.Fatal("Next after Close")
	}
	if it.Err() != nil {
		t.Fatalf("Err after Close = %v", it.Err())
	}
	it2, err := e.Stream(MustParse(q))
	if err := rowsEqual(want, drainIter(t, it2, err)); err != nil {
		t.Fatalf("second stream differs: %v", err)
	}
}

// TestRowIterLimitSpan checks streamed LIMIT handling at the span edges
// on both the unordered early-exit path and the bounded ordered path.
func TestRowIterLimitSpan(t *testing.T) {
	e := NewEngine(streamTestKB())
	for _, limit := range []int{0, 1, 5, 1000} {
		for _, shape := range []string{
			"SELECT ?s ?o WHERE { ?s <http://x/p> ?o } LIMIT %d",
			"SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY ?s ?o LIMIT %d",
			"SELECT ?s ?o WHERE { ?s <http://x/p> ?o } ORDER BY RAND() LIMIT %d",
			"SELECT DISTINCT ?o WHERE { ?s <http://x/p> ?o } ORDER BY DESC(?o) LIMIT %d OFFSET 1",
		} {
			q := fmt.Sprintf(shape, limit)
			want, err := e.EvalString(q)
			if err != nil {
				t.Fatal(err)
			}
			it, err := e.Stream(MustParse(q))
			if err := rowsEqual(want, drainIter(t, it, err)); err != nil {
				t.Fatalf("streamed %q differs: %v", q, err)
			}
		}
	}
}

// TestConcurrentIterators runs many goroutines pulling independent
// iterators — text and prepared — from one shared Engine over a frozen
// synth KB, each asserting byte-identical rows to the sequential drain.
// Some goroutines close early to exercise abort under contention. Run
// with -race.
func TestConcurrentIterators(t *testing.T) {
	spec := synth.TinySpec()
	w := synth.Generate(spec)
	k := w.Yago
	k.Freeze()
	e := NewEngineSeeded(k, 42)

	rels := k.Relations()
	var queries []string
	for i := 0; i < 6 && i < len(rels); i++ {
		r := k.Term(rels[i]).Value
		queries = append(queries,
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y } ORDER BY RAND() LIMIT 19", r),
			fmt.Sprintf("SELECT ?x ?y WHERE { ?x <%s> ?y . FILTER (STRLEN(STR(?y)) > 3) } LIMIT 7", r),
			fmt.Sprintf("SELECT DISTINCT ?x WHERE { ?x <%s> ?y } ORDER BY ?x", r),
		)
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := e.EvalString(q)
		if err != nil {
			t.Fatalf("eval %q: %v", q, err)
		}
		want[i] = res
	}

	tmpl := MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n", "r", "n")
	prep, err := e.Prepare(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	prepWant, err := prep.Exec(IRIArg(k.Term(rels[0]).Value), IntArg(23))
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*(len(queries)+2))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries {
				it, err := e.Stream(MustParse(q))
				if err != nil {
					errs <- err
					return
				}
				if g%3 == 0 && len(want[i].Rows) > 1 {
					// early closer: check the first row then abandon
					if !it.Next() {
						errs <- fmt.Errorf("%q: empty stream, want %d rows", q, len(want[i].Rows))
						it.Close()
						continue
					}
					for c := range it.Row() {
						if it.Row()[c] != want[i].Rows[0][c] {
							errs <- fmt.Errorf("%q: first row differs", q)
						}
					}
					it.Close()
					continue
				}
				got := &Result{Vars: it.Vars()}
				for it.Next() {
					got.Rows = append(got.Rows, it.Row())
				}
				if err := it.Err(); err != nil {
					errs <- err
					continue
				}
				if err := rowsEqual(want[i], got); err != nil {
					errs <- fmt.Errorf("%q: %v", q, err)
				}
			}
			it, err := prep.Iter(IRIArg(k.Term(rels[0]).Value), IntArg(23))
			if err != nil {
				errs <- err
				return
			}
			got := &Result{Vars: it.Vars()}
			for it.Next() {
				got.Rows = append(got.Rows, it.Row())
			}
			if err := rowsEqual(prepWant, got); err != nil {
				errs <- fmt.Errorf("prepared stream: %v", err)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
