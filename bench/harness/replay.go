package harness

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"sofya/bench/trace"
	"sofya/internal/candidates"
	"sofya/internal/cluster"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
)

// sparql and kb sit below endpoint.Local's constructor, where no
// wrapper fits. They are measured by replay instead: the probes
// recorded at the Local boundary run again directly against a
// sparql.Engine on the same KB, and the probes the aligner asked for
// run as the equivalent posting walks on kb — the bottom rungs of the
// ladder. Replays are capped; they sample the traffic.
const (
	maxSparqlReplay = 20000
	maxWalkReplay   = 50000
	// recallSample is how many source relations recall_at_k compares
	// against the linear-time exact ranking.
	recallSample = 40
)

// replayRungs fills the kb.*, sparql.*, candidates.* metrics and
// endpoint.local_self_us_per_query.
func replayRungs(vals map[string]float64, in *instance, tr *trace.Tracer, e env) error {
	t0 := time.Now()
	for _, path := range in.snapshots {
		k, err := kb.OpenSnapshot(path)
		if err != nil {
			return err
		}
		k.Close()
	}
	vals["kb.snapshot_open_ms"] = float64(time.Since(t0)) / 1e6

	if err := replaySparql(vals, in, tr); err != nil {
		return err
	}
	replayWalks(vals, in, tr)
	if len(in.replicas) > 0 {
		if err := replayCluster(vals, in, tr); err != nil {
			return err
		}
	}
	if in.sidecar != "" {
		return replayCandidates(vals, in, e)
	}
	return nil
}

// replaySparql runs the Local-boundary probes through ParseTemplate →
// Engine.Prepare → Iter drain.
func replaySparql(vals map[string]float64, in *instance, tr *trace.Tracer) error {
	templates := tr.Templates()
	probes := tr.LocalProbes()
	if len(probes) > maxSparqlReplay {
		probes = probes[:maxSparqlReplay]
	}
	engines := map[string]*sparql.Engine{}
	type planKey struct {
		ep   string
		tmpl int
	}
	plans := map[planKey]*sparql.Prepared{}
	var prepareNS int64
	for _, p := range probes {
		key := planKey{p.Endpoint, p.Template}
		if plans[key] != nil {
			continue
		}
		eng := engines[p.Endpoint]
		if eng == nil {
			b, ok := in.backing[p.Endpoint]
			if !ok {
				return fmt.Errorf("no KB registered for endpoint %q", p.Endpoint)
			}
			eng = sparql.NewEngineSeeded(b.kb, b.seed)
			engines[p.Endpoint] = eng
		}
		t := templates[p.Template]
		t0 := time.Now()
		tmpl, err := sparql.ParseTemplate(t.Source, t.Params...)
		if err != nil {
			return err
		}
		plan, err := eng.Prepare(tmpl)
		if err != nil {
			return err
		}
		prepareNS += int64(time.Since(t0))
		plans[key] = plan
	}
	vals["sparql.prepare_us_per_template"] = div(prepareNS, int64(len(plans))) / 1e3

	var rows int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, p := range probes {
		plan := plans[planKey{p.Endpoint, p.Template}]
		if plan.Template().Form() == sparql.AskForm {
			if _, err := plan.Exec(p.Args...); err != nil {
				return err
			}
			continue
		}
		it, err := plan.Iter(p.Args...)
		if err != nil {
			return err
		}
		for it.Next() {
			rows++
		}
		if err := it.Err(); err != nil {
			return err
		}
		it.Close()
	}
	execNS := int64(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	n := int64(len(probes))
	vals["sparql.exec_us_per_query"] = div(execNS, n) / 1e3
	vals["sparql.rows_per_query"] = div(rows, n)
	vals["sparql.allocs_per_query"] = div(int64(ms1.Mallocs-ms0.Mallocs), n)
	// The replay drains every stream while the program closes some
	// early, so self is a lower bound where early_close_ratio is high.
	vals["endpoint.local_self_us_per_query"] = max(0, vals["endpoint.local_us_per_query"]-vals["sparql.exec_us_per_query"])
	return nil
}

// replayCluster measures cluster.Replicas, which cluster.NewGroup builds
// inside itself where no span wrapper fits: the Local-boundary probes
// stream once from a bare Local and once through a one-replica set over
// it, built with the options the workload's group was given. The
// difference per call is what the replica layer adds (routing, the
// attempt goroutine, the stream's cancel tie); it comes out of the
// group's self time, leaving shard.Group's own.
func replayCluster(vals map[string]float64, in *instance, tr *trace.Tracer) error {
	templates := tr.Templates()
	probes := tr.LocalProbes()
	if len(probes) > maxSparqlReplay {
		probes = probes[:maxSparqlReplay]
	}
	type handleKey struct {
		ep   string
		tmpl int
	}
	// handle is one template prepared both ways; call one execution.
	type handle struct {
		bare, set endpoint.PreparedQuery
		ask       bool
	}
	type call struct {
		handle
		args []sparql.Arg
	}
	sets := map[string]*cluster.Replicas{}
	defer func() {
		for _, set := range sets {
			set.Close()
		}
	}()
	handles := map[handleKey]handle{}
	calls := make([]call, 0, len(probes))
	for _, p := range probes {
		key := handleKey{p.Endpoint, p.Template}
		h, ok := handles[key]
		if !ok {
			b, known := in.backing[p.Endpoint]
			if !known {
				return fmt.Errorf("no KB registered for endpoint %q", p.Endpoint)
			}
			local := endpoint.NewLocal(b.kb, b.seed)
			set := sets[p.Endpoint]
			if set == nil {
				var err error
				if set, err = cluster.NewReplicas([]endpoint.Endpoint{local}, cluster.Options{}); err != nil {
					return err
				}
				sets[p.Endpoint] = set
			}
			t := templates[p.Template]
			parsed, err := sparql.ParseTemplate(t.Source, t.Params...)
			if err != nil {
				return err
			}
			h.ask = parsed.Form() == sparql.AskForm
			if h.bare, err = local.Prepare(t.Source, t.Params...); err != nil {
				return err
			}
			if h.set, err = set.Prepare(t.Source, t.Params...); err != nil {
				return err
			}
			handles[key] = h
		}
		calls = append(calls, call{h, p.Args})
	}
	ctx := context.Background()
	pass := func(through func(c call) endpoint.PreparedQuery) (int64, error) {
		t0 := time.Now()
		for _, c := range calls {
			pq := through(c)
			if c.ask {
				if _, err := pq.AskCtx(ctx, c.args...); err != nil {
					return 0, err
				}
				continue
			}
			rows, err := endpoint.StreamBorrowed(ctx, pq, c.args...)
			if err != nil {
				return 0, err
			}
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
			if err != nil {
				return 0, err
			}
		}
		return int64(time.Since(t0)), nil
	}
	bare := func(c call) endpoint.PreparedQuery { return c.bare }
	if _, err := pass(bare); err != nil { // warm plan caches for both timed passes
		return err
	}
	bareNS, err := pass(bare)
	if err != nil {
		return err
	}
	setNS, err := pass(func(c call) endpoint.PreparedQuery { return c.set })
	if err != nil {
		return err
	}
	self := max(0, div(setNS-bareNS, int64(len(calls)))/1e3)
	vals["cluster.self_us_per_call"] = self
	vals["shard.merge_self_us_per_query"] = max(0, vals["shard.merge_self_us_per_query"]-self*vals["shard.fanout_per_query"])
	return nil
}

// replayWalks runs, for each probe the aligner asked for, the posting
// walk that answers it on the unsharded KB.
func replayWalks(vals map[string]float64, in *instance, tr *trace.Tracer) {
	templates := tr.Templates()
	probes := tr.TopProbes()
	if len(probes) > maxWalkReplay {
		probes = probes[:maxWalkReplay]
	}
	type walk struct {
		k     *kb.KB
		class trace.Class
		a, b  kb.TermID
	}
	walks := make([]walk, 0, len(probes))
	for _, p := range probes {
		k := in.whole[p.Endpoint]
		class := templates[p.Template].Class
		if k == nil || class == trace.ClassOther {
			continue
		}
		w := walk{k: k, class: class, a: kb.NoTerm, b: kb.NoTerm}
		ids := []*kb.TermID{&w.a, &w.b}
		for i, arg := range p.Args {
			if t, ok := arg.Term(); ok && i < len(ids) {
				*ids[i] = k.Lookup(t)
			}
		}
		if w.a == kb.NoTerm || (class != trace.ClassSample && class != trace.ClassLiterals && w.b == kb.NoTerm) {
			continue // a term the KB never saw: the probe was empty
		}
		walks = append(walks, w)
	}
	var rows int64
	count := func(kb.TermID) bool { rows++; return true }
	count2 := func(_, _ kb.TermID) bool { rows++; return true }
	t0 := time.Now()
	for _, w := range walks {
		switch w.class {
		case trace.ClassBetween: // $x ?p $y
			w.k.EachPredicateBetween(w.a, w.b, count)
		case trace.ClassObjects: // $x $r ?y
			rows += int64(len(w.k.ObjectsOf(w.a, w.b)))
		case trace.ClassSample, trace.ClassOverlap: // ?x $r ?y, every fact ranked
			w.k.EachFactOf(w.a, count2)
		case trace.ClassLiterals: // $x ?p ?v
			for _, p := range w.k.PredicatesOfSubject(w.a) {
				rows += int64(len(w.k.ObjectsOf(w.a, p)))
			}
		}
	}
	ns := int64(time.Since(t0))
	vals["kb.walk_ns_per_row"] = div(ns, rows)
	vals["kb.rows_walked_per_query"] = div(rows, int64(len(walks)))
}

// replayCandidates times the sidecar open and the top-k probe, and
// checks the probe's recall against the exact ranking.
func replayCandidates(vals map[string]float64, in *instance, e env) error {
	fi, err := os.Stat(in.sidecar)
	if err != nil {
		return err
	}
	vals["candidates.sidecar_mb"] = float64(fi.Size()) / (1 << 20)
	t0 := time.Now()
	ix, err := candidates.OpenIndex(in.sidecar)
	if err != nil {
		return err
	}
	vals["candidates.index_open_ms"] = float64(time.Since(t0)) / 1e6

	prober, err := candidates.NewProber(ix, endpoint.NewLocal(in.whole["yago"], seedYago))
	if err != nil {
		return err
	}
	heads := in.sources
	approx := make([][]candidates.Candidate, len(heads))
	t0 = time.Now()
	for i, h := range heads {
		if approx[i], err = prober.TopK(h, e.spec.TopK); err != nil {
			return err
		}
	}
	vals["candidates.topk_us_per_rel"] = div(int64(time.Since(t0)), int64(len(heads))) / 1e3

	step := max(1, len(heads)/recallSample)
	var recall float64
	var n int
	for i := 0; i < len(heads); i += step {
		exact, err := prober.ExactTopK(heads[i], e.spec.TopK)
		if err != nil {
			return err
		}
		recall += candidates.Recall(approx[i], exact)
		n++
	}
	vals["candidates.recall_at_k"] = recall / float64(n)
	return nil
}
