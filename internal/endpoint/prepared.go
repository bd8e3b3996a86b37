package endpoint

import (
	"cmp"
	"context"
	"fmt"

	"sofya/internal/rdf"
	"sofya/internal/sparql"
)

// PreparedQuery is a query template bound to an endpoint: parameters
// are filled per call, positionally, with sparql.Arg values. Against a
// Local endpoint a prepared query skips parsing, planning and text
// interpolation entirely; against a remote endpoint it falls back to
// rendering canonical query text. Either way the results — including
// ORDER BY RAND() streams — are byte-identical to sending the
// equivalent query text, so prepared and text traffic can be mixed
// freely.
//
// Arguments belong to the callee for the call alone: once SelectCtx,
// AskCtx or Stream has returned — a stream it opened may still be read —
// the caller may overwrite the args slice and reuse it. An
// implementation that reads arguments later (a shared stream re-opened
// past a stored prefix, a RAND() stream seeded on the first draw, a
// hedged attempt still running) copies or renders them before it
// returns.
//
// Implementations are safe for concurrent use.
type PreparedQuery interface {
	// SelectCtx executes the template as a SELECT query, honoring ctx
	// for cancellation and deadlines.
	SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error)
	// AskCtx executes the template as an ASK query, honoring ctx.
	AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error)
	// Stream executes the template as a SELECT query returning rows on
	// demand. Draining the stream yields exactly the rows SelectCtx
	// would return, byte for byte; closing it early lets endpoints
	// abort the remaining work. ctx covers the stream's admission;
	// implementations without a native streaming path drain first and
	// replay. Callers must Close the returned Rows.
	Stream(ctx context.Context, args ...sparql.Arg) (Rows, error)
}

// StreamBorrower is an optional PreparedQuery extension for consumers
// that inspect each row once at a merge point and copy only the rows
// they keep (the federation's ordered merge). StreamBorrowed is Stream
// under a weaker row-lifetime contract: Row() may return a buffer that
// is reused on the next Next call, so the endpoint can skip per-row
// materialization entirely. Everything else — row order, RAND()
// pairing, errors, truncation — is byte-identical to Stream.
type StreamBorrower interface {
	StreamBorrowed(ctx context.Context, args ...sparql.Arg) (Rows, error)
}

// StreamBorrowed opens pq's borrowed-row stream when the implementation
// offers one, and falls back to the regular Stream otherwise — a stream
// whose rows remain valid trivially satisfies the weaker borrowed
// contract. Callers must treat every row as invalidated by Next.
func StreamBorrowed(ctx context.Context, pq PreparedQuery, args ...sparql.Arg) (Rows, error) {
	if b, ok := pq.(StreamBorrower); ok {
		return b.StreamBorrowed(ctx, args...)
	}
	return pq.Stream(ctx, args...)
}

// KeyedRows and KeyedStreamer are declarations only: nothing in this
// module implements or calls them — ORDER BY keys are evaluated where the
// streams of a federation merge (shard/merge.go), never behind the wire.
// They stay, name and method set, because bench/trace names them
// (ARCHITECTURE.md, "What bench/ freezes"); ROADMAP item 1b deletes them.
type KeyedRows interface {
	Rows
	AttachedKeys() []int
	RowKeys() []sparql.Value
}

type KeyedStreamer interface {
	StreamKeyed(ctx context.Context, orderText string, args ...sparql.Arg) (Rows, error)
}

// BatchStreamer is the one optional PreparedQuery extension for callers
// that hold several independent executions of one template at once — a
// stage's per-subject object fetches, say: StreamBatch answers one
// stream per argument tuple as one RowSets, each set byte-identical to
// Stream on its tuple. A set's rows are borrowed, as StreamBorrowed's
// are: a row is valid until the next Next (or NextResultSet), so every
// layer a group crosses — wire decoder, shard merge, server — reuses its
// buffers, and a caller keeping a row copies it. A tuple that fails ends
// the group: the open fails with its error, or — sets before it having
// reached the caller — NextResultSet reports false and Err the error.
// The HTTP client sends a group as one request answered by one body
// (multi.go), a replica set hedges it at open, the federation opens it
// once per shard that has tuples and hands the sets back in tuple order.
// It counts as len(argSets) queries wherever queries are counted; a
// caller that wants whole results drains it (SelectBatch), the one drain
// that copies. Callers must Close the RowSets.
//
// argSets and the tuples in it are the callee's until the RowSets is
// closed, or the open has failed — a group's tuples may be opened one by
// one as the caller reaches them (StreamBatch) — and no longer: a caller
// may reuse them after that, so a callee that reads them later, such as
// a hedged attempt still running, copies them first.
type BatchStreamer interface {
	StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (RowSets, error)
}

// SelectBatch runs pq once per tuple of argSets and returns the results
// in tuple order, each byte-identical to SelectCtx on its tuple: it
// drains the sets of a BatchStreamer's group (StreamBatch), and calls
// SelectCtx one tuple after the other otherwise — which is also what keeps
// Caching, Admission and Local exact: they see a group as the single
// probes it stands for. The rows are the caller's to keep: a set's
// borrowed rows are copied into one flat slice per set. The first
// failing tuple fails the group; a group cut after its open fails with
// the transport's error, never a short result.
func SelectBatch(ctx context.Context, pq PreparedQuery, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	out := make([]*sparql.Result, len(argSets))
	if _, ok := pq.(BatchStreamer); ok && len(argSets) > 1 {
		sets, err := StreamBatch(ctx, pq, argSets)
		if err != nil {
			return nil, err
		}
		err = readGroup(sets, len(argSets), func(i int, rows Rows) error {
			out[i] = keepRows(rows)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	for i, args := range argSets {
		res, err := pq.SelectCtx(ctx, args...)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// keepRows drains what is left of a borrowed set into a Result whose
// rows share one backing slice of copied terms.
func keepRows(rows Rows) *sparql.Result {
	res := &sparql.Result{Vars: rows.Vars()}
	var terms []rdf.Term
	n := 0
	for ; rows.Next(); n++ {
		terms = append(terms, rows.Row()...)
	}
	if n > 0 {
		w := len(terms) / n
		res.Rows = make([][]rdf.Term, n)
		for j := range res.Rows {
			res.Rows[j] = terms[j*w : (j+1)*w : (j+1)*w]
		}
	}
	res.Truncated = rows.Truncated()
	return res
}

// StreamBatch opens pq once per tuple of argSets: natively when pq is a
// BatchStreamer, and otherwise as one StreamBorrowed per tuple, opened
// when the caller reaches it and closed when it moves on — an endpoint
// that does not group sees the calls of a caller that never heard of
// groups, in their order, and a Local charges the rows actually pulled.
// Either way the rows are borrowed (BatchStreamer).
func StreamBatch(ctx context.Context, pq PreparedQuery, argSets [][]sparql.Arg) (RowSets, error) {
	if b, ok := pq.(BatchStreamer); ok {
		return b.StreamBatch(ctx, argSets)
	}
	if len(argSets) == 0 {
		return ReplaySets(nil), nil
	}
	rows, err := StreamBorrowed(ctx, pq, argSets[0]...)
	if err != nil {
		return nil, err
	}
	rest := argSets[1:]
	if len(rest) == 0 {
		return NewRowSets(rows, nil, nil), nil // no closure for a caller that takes one item at a time
	}
	return NewRowSets(rows, func() (Rows, error) {
		if len(rest) == 0 {
			return nil, nil
		}
		args := rest[0]
		rest = rest[1:]
		return StreamBorrowed(ctx, pq, args...)
	}, nil), nil
}

// EachSet opens pq once per tuple of argSets (StreamBatch), hands every
// set in turn to read — which pulls what it wants of it — and closes the
// group: the loop of a caller that knows where each of its streams stops.
// The rows are borrowed, so read must copy what it keeps of a row before
// its next Next.
func EachSet(ctx context.Context, pq PreparedQuery, argSets [][]sparql.Arg, read func(i int, rows Rows) error) error {
	sets, err := StreamBatch(ctx, pq, argSets)
	if err != nil {
		return err
	}
	return readGroup(sets, len(argSets), read)
}

// readGroup hands the n sets of a group in turn to read, and closes the
// group.
func readGroup(sets RowSets, n int, read func(i int, rows Rows) error) error {
	defer sets.Close()
	for i := range n {
		if i > 0 && !sets.NextResultSet() {
			return cmp.Or(sets.Err(), fmt.Errorf("endpoint: a group of %d answered in %d sets", n, i))
		}
		if err := cmp.Or(read(i, sets), sets.Err()); err != nil {
			return err
		}
	}
	return nil
}

// SelectText runs a query text as the template without parameters it
// is — ep.Prepare(query), then the handle — unless ctx has ended. It is
// every SelectCtx(ctx, query) of the module but Client's. An endpoint
// defines its text calls by its Prepare, as here, or its Prepare by its
// text calls (NewTextPrepared), never both: that recurses forever.
func SelectText(ctx context.Context, ep Endpoint, query string) (*sparql.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pq, err := ep.Prepare(query)
	if err != nil {
		return nil, err
	}
	return pq.SelectCtx(ctx)
}

// AskText is SelectText for ASK.
func AskText(ctx context.Context, ep Endpoint, query string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	pq, err := ep.Prepare(query)
	if err != nil {
		return false, err
	}
	return pq.AskCtx(ctx)
}

// localPrepared is Local's PreparedQuery: a compiled plan executed
// in-process under the endpoint's quota and statistics. A call of the
// wrong form is refused before it is admitted, and charges nothing.
type localPrepared struct {
	l    *Local
	plan *sparql.Prepared
}

func (p *localPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	if p.plan.Form() != sparql.SelectForm {
		return nil, errNeedSelect
	}
	if err := p.l.admitCtx(ctx); err != nil {
		return nil, err
	}
	res, err := p.plan.Exec(args...)
	if err != nil {
		return nil, err
	}
	p.l.capAndCount(res)
	return res, nil
}

func (p *localPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	if p.plan.Form() != sparql.AskForm {
		return false, errNeedAsk
	}
	if err := p.l.admitCtx(ctx); err != nil {
		return false, err
	}
	res, err := p.plan.Exec(args...)
	if err != nil {
		return false, err
	}
	return res.Ask, nil
}

// Stream implements PreparedQuery natively: the compiled plan's join
// tree produces rows as the caller pulls them, so an early Close stops
// the engine mid-join — the LIMIT-heavy probe sites stop paying for
// rows they discard. The execution is charged against the quota like
// any query; the row cap and row statistics apply to the rows actually
// pulled.
func (p *localPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	return p.stream(ctx, args, (*sparql.Prepared).Iter)
}

// StreamBorrowed implements StreamBorrower natively: the engine writes
// every row into one reused projection buffer (sparql.IterBorrowed), so
// a merge-point consumer pulls the whole enumeration without a single
// per-row allocation. Quota and statistics behave exactly like Stream.
func (p *localPrepared) StreamBorrowed(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	return p.stream(ctx, args, (*sparql.Prepared).IterBorrowed)
}

func (p *localPrepared) stream(ctx context.Context, args []sparql.Arg, iter func(*sparql.Prepared, ...sparql.Arg) (*sparql.RowIter, error)) (Rows, error) {
	if p.plan.Form() != sparql.SelectForm {
		return nil, errNeedSelect
	}
	if err := p.l.admitCtx(ctx); err != nil {
		return nil, err
	}
	it, err := iter(p.plan, args...)
	if err != nil {
		return nil, err
	}
	return &localRows{l: p.l, it: it, maxRows: p.l.maxRows()}, nil
}

// textPrepared renders the template to canonical query text per call
// and sends it through the endpoint's text methods — the fallback for
// endpoints without an in-process engine (the HTTP client, test
// doubles). Because the rendered text is canonical, a remote Local
// server derives the same RAND() stream the in-process fast path would.
type textPrepared struct {
	ep   Endpoint
	tmpl *sparql.Template
}

// NewTextPrepared builds a PreparedQuery over any Endpoint by text
// interpolation. Endpoints without a native prepared path use it to
// satisfy Prepare, and then must not run their text calls by SelectText.
func NewTextPrepared(ep Endpoint, template string, params ...string) (PreparedQuery, error) {
	t, err := sparql.ParseTemplate(template, params...)
	if err != nil {
		return nil, err
	}
	return &textPrepared{ep: ep, tmpl: t}, nil
}

func (p *textPrepared) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	text, err := p.tmpl.Text(args...)
	if err != nil {
		return nil, err
	}
	return p.ep.SelectCtx(ctx, text)
}

func (p *textPrepared) AskCtx(ctx context.Context, args ...sparql.Arg) (bool, error) {
	text, err := p.tmpl.Text(args...)
	if err != nil {
		return false, err
	}
	return p.ep.AskCtx(ctx, text)
}

// Stream implements PreparedQuery by drain-then-iterate: endpoints
// without an in-process engine (the HTTP client, test doubles) answer
// whole results, so the stream replays a completed SelectCtx. Rows are
// byte-identical to the native streaming path; only the early-close
// saving is unavailable.
func (p *textPrepared) Stream(ctx context.Context, args ...sparql.Arg) (Rows, error) {
	res, err := p.SelectCtx(ctx, args...)
	if err != nil {
		return nil, err
	}
	return ReplayRows(res), nil
}

var (
	_ PreparedQuery  = (*localPrepared)(nil)
	_ StreamBorrower = (*localPrepared)(nil)
	_ PreparedQuery  = (*textPrepared)(nil)
)
