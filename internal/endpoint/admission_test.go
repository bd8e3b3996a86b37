package endpoint

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sofya/internal/sparql"
)

// The decorator-transparency differential: an Admission-wrapped Local
// with unlimited limits answers byte-identically to the bare Local
// across the oracle shapes — text Select/Ask, prepared execution, and
// streams (drained and closed early) — exactly like Caching and
// Coalescing.
func TestAdmissionTransparent(t *testing.T) {
	for _, lim := range []Limits{
		{},                                     // unlimited: the no-semaphore fast path
		{MaxInFlight: 1 << 20, Queue: 1 << 20}, // huge: the semaphore path, never saturated
	} {
		bare := NewLocal(testKB(), 7)
		wrapped := NewAdmission(NewLocal(testKB(), 7), lim)

		shapes := []string{
			selP,
			selPX,
			`SELECT ?x ?y WHERE { ?x <http://x/p> ?y } ORDER BY RAND() LIMIT 2`,
			`SELECT DISTINCT ?x WHERE { ?x <http://x/p> ?y }`,
		}
		for _, q := range shapes {
			want, err1 := bare.SelectCtx(context.Background(), q)
			got, err2 := wrapped.SelectCtx(context.Background(), q)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: errs %v %v", q, err1, err2)
			}
			if renderRes(want) != renderRes(got) {
				t.Fatalf("%s: wrapped result diverged", q)
			}
		}
		wantOK, _ := bare.AskCtx(context.Background(), askAB)
		gotOK, err := wrapped.AskCtx(context.Background(), askAB)
		if err != nil || wantOK != gotOK {
			t.Fatalf("ask diverged: %v %v %v", wantOK, gotOK, err)
		}

		// Prepared + streams, drained and early-closed.
		bp, err := bare.Prepare(selP)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := wrapped.Prepare(selP)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := bp.SelectCtx(context.Background())
		got, err := wp.SelectCtx(context.Background())
		if err != nil || renderRes(want) != renderRes(got) {
			t.Fatalf("prepared diverged: %v", err)
		}
		ws, err := wp.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var rows int
		for ws.Next() {
			rows++
		}
		ws.Close()
		if ws.Err() != nil || rows != len(want.Rows) {
			t.Fatalf("stream rows = %d err = %v", rows, ws.Err())
		}
		early, err := wp.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !early.Next() {
			t.Fatal("no first row")
		}
		early.Close()

		// Quota/stats accounting is the inner endpoint's, undisturbed.
		if wrapped.Stats().Queries == 0 {
			t.Fatal("delegated stats lost traffic")
		}
		st := wrapped.AdmissionStats()
		if st.Shed() != 0 || st.InFlight != 0 || st.Waiting != 0 {
			t.Fatalf("transparent run shed or leaked slots: %+v", st)
		}
	}
}

func renderRes(res *sparql.Result) string {
	var sb []byte
	for _, row := range res.Rows {
		for _, term := range row {
			sb = append(sb, term.String()...)
			sb = append(sb, '\t')
		}
		sb = append(sb, '\n')
	}
	return string(sb)
}

// Saturation with no queue sheds immediately with ErrOverloaded, which
// is both quota-family (Is) and retriable — the two halves of the
// failover contract.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	a := NewAdmission(inner, Limits{MaxInFlight: 1})

	started := make(chan struct{})
	holderErr := make(chan error, 1)
	go func() {
		close(started)
		_, err := a.SelectCtx(context.Background(), selP)
		holderErr <- err
	}()
	<-started
	waitForInflight(t, a, 1)

	_, err := a.SelectCtx(context.Background(), selPX)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatal("ErrOverloaded must be in the quota family")
	}
	if !Retriable(err) {
		t.Fatal("a shed must be retriable")
	}
	if Retriable(ErrQuotaExceeded) {
		t.Fatal("a plain quota rejection must stay terminal")
	}

	close(inner.gate)
	if err := <-holderErr; err != nil {
		t.Fatal(err)
	}
	st := a.AdmissionStats()
	if st.Admitted != 1 || st.ShedQueueFull != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// waitForInflight spins until the decorator reports n slots held.
func waitForInflight(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.AdmissionStats().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d: %+v", n, a.AdmissionStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForWaiting spins until n callers sit in the admission queue.
func waitForWaiting(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for a.AdmissionStats().Waiting != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiting never reached %d: %+v", n, a.AdmissionStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// A queued caller is admitted when the holder finishes; a caller past
// the queue bound sheds; a queued caller whose wait exceeds the
// timeout sheds too — the three queue outcomes, deterministically.
func TestAdmissionQueueOutcomes(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	a := NewAdmission(inner, Limits{MaxInFlight: 1, Queue: 1})

	holderErr := make(chan error, 1)
	go func() {
		_, err := a.SelectCtx(context.Background(), selP)
		holderErr <- err
	}()
	waitForInflight(t, a, 1)

	queuedErr := make(chan error, 1)
	go func() {
		_, err := a.SelectCtx(context.Background(), selPX)
		queuedErr <- err
	}()
	waitForWaiting(t, a, 1)

	// The queue is full: a third caller sheds immediately.
	if _, err := a.SelectCtx(context.Background(), askQ); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third caller: %v, want shed", err)
	}

	// Release the holder: the queued caller must be admitted.
	close(inner.gate)
	if err := <-holderErr; err != nil {
		t.Fatal(err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued caller not admitted: %v", err)
	}
	st := a.AdmissionStats()
	if st.Admitted != 2 || st.Queued != 1 || st.ShedQueueFull != 1 || st.ShedTimeout != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

const askQ = `ASK { <http://x/b> <http://x/p> <http://x/c> }`

// Queue timeout: a queued caller sheds once the timeout elapses even
// though the holder never releases; its context ending instead
// surfaces ctx.Err, not a shed.
func TestAdmissionQueueTimeoutAndContext(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	defer close(inner.gate)
	a := NewAdmission(inner, Limits{MaxInFlight: 1, Queue: 2, QueueTimeout: 20 * time.Millisecond})

	go a.SelectCtx(context.Background(), selP) //nolint:errcheck — released by the deferred gate close
	waitForInflight(t, a, 1)

	start := time.Now()
	_, err := a.SelectCtx(context.Background(), selPX)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("timed-out caller: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond || d > time.Second {
		t.Fatalf("timeout fired after %v", d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ctxErr := make(chan error, 1)
	go func() {
		_, err := a.SelectCtx(ctx, selPX)
		ctxErr <- err
	}()
	waitForWaiting(t, a, 1)
	cancel()
	if err := <-ctxErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: %v, want context.Canceled", err)
	}
	st := a.AdmissionStats()
	if st.ShedTimeout != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A streamed execution holds its slot until the stream closes: while a
// stream is open the endpoint is saturated, and Close (mid-stream, or
// after exhaustion, idempotently) releases exactly one slot.
func TestAdmissionStreamHoldsSlotUntilClose(t *testing.T) {
	a := NewAdmission(NewLocal(testKB(), 1), Limits{MaxInFlight: 1})
	pq, err := a.Prepare(selP)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if _, err := a.SelectCtx(context.Background(), selPX); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("open stream did not hold the slot: %v", err)
	}
	rows.Close()
	rows.Close() // idempotent: must not double-release
	if _, err := a.SelectCtx(context.Background(), selPX); err != nil {
		t.Fatalf("slot not released on Close: %v", err)
	}
	// Exhaustion releases too.
	rows, err = pq.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if _, err := a.SelectCtx(context.Background(), selPX); err != nil {
		t.Fatalf("slot not released on exhaustion: %v", err)
	}
	rows.Close()
	if st := a.AdmissionStats(); st.InFlight != 0 {
		t.Fatalf("leaked slots: %+v", st)
	}
}

// The -race workout: concurrent acquire/release through every method,
// queue timeouts racing releases during a drain, and Close mid-stream
// with admissions held. Counters must balance and no slot may leak.
func TestAdmissionConcurrentRace(t *testing.T) {
	a := NewAdmission(NewLocal(testKB(), 1), Limits{MaxInFlight: 2, Queue: 4, QueueTimeout: 2 * time.Millisecond})
	pq, err := a.Prepare(selP)
	if err != nil {
		t.Fatal(err)
	}
	var shed, ok, ctxDone atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for j := 0; j < 50; j++ {
				var err error
				switch j % 4 {
				case 0:
					_, err = a.SelectCtx(ctx, selP)
				case 1:
					_, err = a.AskCtx(ctx, askAB)
				case 2:
					_, err = pq.SelectCtx(ctx)
				default:
					var rows Rows
					rows, err = pq.Stream(ctx)
					if err == nil {
						if j%8 == 3 {
							rows.Next() // Close mid-stream with the slot held
						} else {
							for rows.Next() {
							}
						}
						rows.Close()
					}
				}
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, context.Canceled):
					ctxDone.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := a.AdmissionStats()
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("leaked admissions: %+v", st)
	}
	if got := ok.Load() + shed.Load() + ctxDone.Load(); got != 8*50 {
		t.Fatalf("outcomes %d != calls %d", got, 8*50)
	}
	if uint64(ok.Load()) > st.Admitted {
		t.Fatalf("successes %d exceed admissions %d", ok.Load(), st.Admitted)
	}
	if uint64(shed.Load()) != st.Shed() {
		t.Fatalf("shed outcomes %d != shed stats %d", shed.Load(), st.Shed())
	}
}

// Shed responses travel HTTP faithfully: a saturated admission-wrapped
// server answers 429 with the overload marker, the client maps it back
// to ErrOverloaded (retriable), while a real quota rejection still
// maps to the terminal ErrQuotaExceeded.
func TestAdmissionShedOverHTTP(t *testing.T) {
	inner := &gatedEndpoint{Local: NewLocal(testKB(), 1), gate: make(chan struct{})}
	a := NewAdmission(inner, Limits{MaxInFlight: 1})
	srv := httptest.NewServer(NewServerEndpoint(a))
	defer srv.Close()
	c := NewClient("test", srv.URL, srv.Client())

	holderErr := make(chan error, 1)
	go func() {
		_, err := c.SelectCtx(context.Background(), selP)
		holderErr <- err
	}()
	waitForInflight(t, a, 1)

	_, err := c.SelectCtx(context.Background(), selPX)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("client err = %v, want ErrOverloaded", err)
	}
	if !Retriable(err) {
		t.Fatal("client-side shed must be retriable")
	}
	if ok, err := c.AskCtx(context.Background(), askAB); ok || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("ask shed = %v, %v", ok, err)
	}
	// The streamed path sheds identically (shed happens at open).
	pq, err := c.Prepare(selP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Stream(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stream shed = %v", err)
	}

	close(inner.gate)
	if err := <-holderErr; err != nil {
		t.Fatal(err)
	}

	// Contrast: a quota rejection is 429 without the marker → terminal.
	q := NewLocalRestricted(testKB(), 1, Quota{MaxQueries: 0})
	q.SetQuota(Quota{MaxQueries: 1})
	qsrv := httptest.NewServer(NewServer(q))
	defer qsrv.Close()
	qc := NewClient("test", qsrv.URL, qsrv.Client())
	if _, err := qc.SelectCtx(context.Background(), selP); err != nil {
		t.Fatal(err)
	}
	_, err = qc.SelectCtx(context.Background(), selPX)
	if !errors.Is(err, ErrQuotaExceeded) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("quota err = %v", err)
	}
	if Retriable(err) {
		t.Fatal("quota rejection must stay terminal over HTTP")
	}
}

// BenchmarkAdmissionAcquire prices the decorator on the hot path: the
// same parallel ASK storm against the bare Local and against an
// admission gate that never saturates — the delta is acquire/release.
func BenchmarkAdmissionAcquire(b *testing.B) {
	run := func(b *testing.B, ep Endpoint) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := ep.AskCtx(context.Background(), askAB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("bare", func(b *testing.B) { run(b, NewLocal(testKB(), 1)) })
	b.Run("admitted", func(b *testing.B) {
		run(b, NewAdmission(NewLocal(testKB(), 1), Limits{MaxInFlight: 64, Queue: 64}))
	})
}
