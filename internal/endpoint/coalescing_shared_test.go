package endpoint

import (
	"context"
	"sync"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// Two endpoints with different data behind one shared coalescer: the
// same query text must never cross-answer between them, because flight
// keys carry the endpoint name. Before the name was part of the key,
// concurrent identical texts against different endpoints could collapse
// into one flight and hand one endpoint's rows to the other's caller.
func TestCoalescingSharedAcrossEndpoints(t *testing.T) {
	mk := func(name, obj string) *Local {
		k := kb.New(name)
		k.AddIRIs("http://x/s", "http://x/p", obj)
		return NewLocal(k, 1)
	}
	a := mk("kb-a", "http://x/oa")
	b := mk("kb-b", "http://x/ob")

	shared := NewCoalescing(a)
	ca, cb := shared, shared.For(b)
	if ca.Name() != "kb-a" || cb.Name() != "kb-b" {
		t.Fatalf("names = %q, %q", ca.Name(), cb.Name())
	}

	const query = "SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }"
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	check := func(c *Coalescing, want string) {
		defer wg.Done()
		res, err := c.SelectCtx(context.Background(), query)
		if err != nil {
			errs <- err
			return
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Value != want {
			errs <- errWrongRows(c.Name(), res)
		}
	}
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go check(ca, "http://x/oa")
		go check(cb, "http://x/ob")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Prepared handles over the shared core stay separated too.
	pa, err := ca.Prepare("SELECT ?o WHERE { $s <http://x/p> ?o }", "s")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := cb.Prepare("SELECT ?o WHERE { $s <http://x/p> ?o }", "s")
	if err != nil {
		t.Fatal(err)
	}
	ra, err := pa.SelectCtx(context.Background(), sparql.IRIArg("http://x/s"))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := pb.SelectCtx(context.Background(), sparql.IRIArg("http://x/s"))
	if err != nil {
		t.Fatal(err)
	}
	if ra.Rows[0][0].Value != "http://x/oa" || rb.Rows[0][0].Value != "http://x/ob" {
		t.Fatalf("prepared cross-answer: a=%v b=%v", ra.Rows[0][0], rb.Rows[0][0])
	}
}

type wrongRowsError struct {
	name string
	res  *sparql.Result
}

func errWrongRows(name string, res *sparql.Result) error {
	return &wrongRowsError{name: name, res: res}
}

func (e *wrongRowsError) Error() string {
	return "endpoint " + e.name + " answered with foreign rows"
}
