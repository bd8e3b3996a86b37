package sparql

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sofya/internal/rdf"
)

// lifetime_test.go holds the execution state's lifetime: start takes a
// state from execPool and end hands it back, once, when the execution
// has ended — so a state still in use must never be handed out again.

// TestExecStateLifetimes runs four probe shapes from eight goroutines
// over one Prepared each: the ordered RAND() sample, the overlap probe
// (whose NOT EXISTS plans its subgroup into the state's planned map), a
// key-ordered window and an unordered probe that draws RAND() in a
// filter. Each goroutine keeps two streams open at once and runs an Exec
// between their rows, through Exec, Iter and IterBorrowed, and reads
// every stream one of five ways: drained, closed after k rows, closed
// before its first Next, closed twice, or pulled again after it ended.
// A state put back twice, or put back while its execution still reads
// it, is then held by two executions of one goroutine at once, and some
// row read differs from a fresh engine's Exec.
func TestExecStateLifetimes(t *testing.T) {
	const seed = 3
	shapes := []struct {
		tmpl   *Template
		args   func(n int) []Arg
		limits []int
	}{
		{sampleProbes[0].tmpl,
			func(n int) []Arg { return []Arg{IRIArg("http://b/p"), IntArg(n)} },
			[]int{1, 7, 200}},
		{sampleProbes[1].tmpl,
			func(n int) []Arg { return []Arg{IRIArg("http://b/p"), IRIArg("http://b/q"), IntArg(n)} },
			[]int{3, 50, 200}},
		{MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY DESC(?y) LIMIT $n", "r", "n"),
			func(n int) []Arg { return []Arg{IRIArg("http://b/q"), IntArg(n)} },
			[]int{2, 30, 120}},
		{MustParseTemplate("SELECT ?x ?y WHERE { ?x $r ?y FILTER(RAND() < 0.6) } LIMIT $n", "r", "n"),
			func(n int) []Arg { return []Arg{IRIArg("http://b/p"), IntArg(n)} },
			[]int{5, 70, 150}},
	}
	fresh, shared := NewEngineSeeded(sampleKB(300), seed), NewEngineSeeded(sampleKB(300), seed)
	type execution struct {
		name string
		p    *Prepared
		args []Arg
		want [][]rdf.Term
	}
	var execs []execution
	for si, sh := range shapes {
		ref, err := fresh.Prepare(sh.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		p, err := shared.Prepare(sh.tmpl)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sh.limits {
			want, err := ref.Exec(sh.args(n)...)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) < 2 && n > 1 {
				t.Fatalf("shape %d, LIMIT %d: %d rows, too few to tell streams apart", si, n, len(want.Rows))
			}
			execs = append(execs, execution{fmt.Sprintf("shape %d LIMIT %d", si, n), p, sh.args(n), want.Rows})
		}
	}

	// A reader is one open stream read one way; step reads one row or
	// ends it, and reports whether the stream is done.
	const (
		drained = iota
		closedAfterK
		closedFirst
		closedTwice
		nextAfterEnd
		modes
	)
	type reader struct {
		x    execution
		it   *RowIter
		mode int
		k    int // closedAfterK, closedTwice: rows read before Close
		i    int
	}
	step := func(r *reader) (bool, error) {
		if (r.mode == closedFirst && r.i == 0) || ((r.mode == closedAfterK || r.mode == closedTwice) && r.i == r.k) {
			r.it.Close()
			if r.mode == closedTwice {
				r.it.Close()
			}
			if r.it.Next() {
				return true, fmt.Errorf("%s: a row after Close", r.x.name)
			}
			return true, nil
		}
		if !r.it.Next() {
			if err := r.it.Err(); err != nil {
				return true, fmt.Errorf("%s: %v", r.x.name, err)
			}
			if r.i != len(r.x.want) {
				return true, fmt.Errorf("%s: stream ended at row %d of %d", r.x.name, r.i, len(r.x.want))
			}
			if r.mode == nextAfterEnd && (r.it.Next() || r.it.Next()) {
				return true, fmt.Errorf("%s: a row after the end", r.x.name)
			}
			r.it.Close()
			return true, nil
		}
		if r.i >= len(r.x.want) {
			return true, fmt.Errorf("%s: row %d past the %d of Exec", r.x.name, r.i, len(r.x.want))
		}
		if !slices.Equal(r.it.Row(), r.x.want[r.i]) {
			return true, fmt.Errorf("%s: row %d is %v, a fresh engine's %v", r.x.name, r.i, r.it.Row(), r.x.want[r.i])
		}
		r.i++
		return false, nil
	}
	exec := func(x execution) error {
		res, err := x.p.Exec(x.args...)
		if err != nil {
			return fmt.Errorf("%s: Exec: %v", x.name, err)
		}
		if !slices.EqualFunc(res.Rows, x.want, slices.Equal) {
			return fmt.Errorf("%s: Exec differs from a fresh engine's", x.name)
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			open := func(c int) (*reader, error) {
				x := execs[c%len(execs)]
				r := &reader{x: x, mode: c % modes, k: 1 + c%max(1, len(x.want)-1)}
				var err error
				if c/modes%2 == 0 {
					r.it, err = x.p.Iter(x.args...)
				} else {
					r.it, err = x.p.IterBorrowed(x.args...)
				}
				return r, err
			}
			for round := 0; round < 40; round++ {
				c := g*131 + round*17
				a, err := open(c)
				if err != nil {
					t.Error(err)
					return
				}
				// a holds its state, and has read a row or selected its
				// window, before b and the Exec take theirs.
				doneA, err := step(a)
				if err == nil {
					err = exec(execs[(c+5)%len(execs)])
				}
				if err != nil {
					t.Error(err)
					return
				}
				b, err := open(c + 7)
				if err != nil {
					t.Error(err)
					return
				}
				for doneB := false; !doneA || !doneB; {
					if !doneA {
						if doneA, err = step(a); err != nil {
							t.Error(err)
							return
						}
					}
					if !doneB {
						if doneB, err = step(b); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if err := exec(execs[(c+11)%len(execs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClosedStreamHandsStateBack holds an unordered stream closed before
// its first Next to the rule every execution keeps: its state goes back
// to the pool. Opening and closing such a stream then allocates no more
// than opening it, reading one row (a fresh one, unless borrowed) and
// closing it; a state left to the collector costs three objects more
// each time — the state, its register file and its resolved ids.
func TestClosedStreamHandsStateBack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	p, err := NewEngineSeeded(sampleKB(100), 1).Prepare(MustParseTemplate(
		"SELECT ?x ?y WHERE { ?x $r ?y } LIMIT $n", "r", "n"))
	if err != nil {
		t.Fatal(err)
	}
	args := []Arg{IRIArg("http://b/p"), IntArg(50)}
	for _, borrowed := range []bool{false, true} {
		counts := map[int]float64{}
		for _, n := range []int{0, 1} {
			run := func() {
				if got, err := readStream(p, args, borrowed, n); err != nil || got != n {
					t.Fatalf("borrowed %v: read %d rows, want %d: %v", borrowed, got, n, err)
				}
			}
			run() // warm the pool
			counts[n] = testing.AllocsPerRun(50, run)
		}
		row := 1.0 // the row an Iter allocates
		if borrowed {
			row = 0
		}
		if counts[0]+row > counts[1] {
			t.Errorf("borrowed %v: %.0f allocs/op closing before the first Next, %.0f after one row: the closed stream's state is not handed back",
				borrowed, counts[0], counts[1])
		}
		t.Logf("borrowed %v: %.0f allocs/op closed before the first Next, %.0f after one row", borrowed, counts[0], counts[1])
	}
}
