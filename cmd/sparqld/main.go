// Command sparqld serves a knowledge base over the SPARQL 1.1 HTTP
// protocol, optionally with public-endpoint-style access restrictions —
// the remote side of the paper's setting.
//
//	sparqld -kb yago.nt -addr :8890 -max-rows 10000
//	sparqld -synthetic tiny -side dbp -addr :8890
//
// Restarts are fastest from binary snapshots (cmd/kbgen -snapshot):
// a whole-KB snapshot is memory-mapped and served with zero parse or
// re-index cost, and a set of per-shard snapshots stands a federated
// endpoint group back up in milliseconds:
//
//	sparqld -snapshot world/yago.snap
//	sparqld -snapshot 'world/yago-shard-*-of-3.snap'
//
// Cluster mode splits one logical KB across processes. Each data node
// serves one subject-hash shard (-shard-of i/n partitions the loaded
// KB; a single kbgen shard snapshot works too), and a front-end
// federates them over the network, with replica failover, health
// probing and optional hedged reads:
//
//	sparqld -synthetic tiny -shard-of 0/3 -addr :9000
//	sparqld -synthetic tiny -shard-of 1/3 -addr :9001
//	sparqld -synthetic tiny -shard-of 2/3 -addr :9002
//	sparqld -peers 'http://localhost:9000,http://localhost:9001,http://localhost:9002' \
//	        -cluster-name tiny/yago -addr :8890
//
// Replicas of a shard are pipe-separated within its comma slot:
// -peers 'http://a:9000|http://b:9000,http://a:9001|http://b:9001'.
//
// Every sparqld exposes observability endpoints next to the query
// handler: /healthz (the cluster prober's liveness answer), /debug/vars
// (expvar: query/row/latency counters, per-replica health) and
// /debug/pprof/* (live profiling).
//
// The server enforces read-header and idle timeouts (a stalled client
// cannot pin a connection forever) and drains in-flight queries on
// SIGINT/SIGTERM before exiting.
//
// Query it with curl:
//
//	curl --data-urlencode 'query=SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5' http://localhost:8890/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"sofya/internal/cluster"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/shard"
	"sofya/internal/synth"
)

func main() {
	var (
		kbPath     = flag.String("kb", "", "N-Triples file to serve")
		snapshot   = flag.String("snapshot", "", "binary snapshot(s) to serve: a path, comma list or glob; a complete kbgen shard set is served as a federation group")
		synthetic  = flag.String("synthetic", "", "serve a synthetic world instead: tiny | paper")
		side       = flag.String("side", "yago", "synthetic side: yago | dbp")
		addr       = flag.String("addr", ":8890", "listen address")
		maxQueries = flag.Int("max-queries", 0, "session query budget (0 = unlimited)")
		maxRows    = flag.Int("max-rows", 10000, "row cap per SELECT (0 = unlimited)")
		seed       = flag.Int64("seed", 1, "RAND() seed")
		shards     = flag.Int("shards", 1, "serve the KB as this many subject-hash shards behind a federating group")
		shardOf    = flag.String("shard-of", "", "serve only shard i of an n-way subject-hash partition, as 'i/n' (data node of a cluster)")
		peers      = flag.String("peers", "", "federate remote shard endpoints instead of serving a KB: comma-separated shards, pipe-separated replicas per shard")
		clusterNm  = flag.String("cluster-name", "kb", "logical KB name a -peers front-end serves under (must match the name the shards were partitioned from)")
		hedge      = flag.Duration("hedge", 0, "hedged reads: re-issue to another replica after this delay (0 = off)")
		hedgePct   = flag.Float64("hedge-pct", 0, "hedged reads: derive the hedge delay from this latency percentile in (0,1) once enough samples exist")
		probeEvery = flag.Duration("probe-every", 2*time.Second, "replica health probe interval for a -peers front-end (0 = off)")
		failAfter  = flag.Int("fail-after", 3, "consecutive failures before a replica is ejected")
		drain      = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain window on SIGINT/SIGTERM")

		maxInflight  = flag.Int("max-inflight", 0, "admission control: concurrent queries allowed (0 = unlimited); excess is queued then shed as 429")
		queue        = flag.Int("queue", 0, "admission control: callers allowed to wait for a slot once -max-inflight is reached")
		queueTimeout = flag.Duration("queue-timeout", 0, "admission control: how long a queued caller waits before it is shed (0 = until a slot frees)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(1)
	}
	var paths []string // what -snapshot names
	if *snapshot != "" {
		var err error
		if paths, err = snapshotPaths(*snapshot); err != nil {
			fatal(err)
		}
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := flagConflicts(set, len(paths)); err != nil {
		fmt.Fprintln(os.Stderr, "sparqld:", err)
		os.Exit(2)
	}
	quota := endpoint.Quota{MaxQueries: *maxQueries, MaxRows: *maxRows}

	var serve endpoint.Endpoint
	var clusterGroup *cluster.Group
	var base *kb.KB
	switch {
	case *peers != "":
		if *kbPath != "" || *snapshot != "" || *synthetic != "" {
			fatal(fmt.Errorf("-peers is a pure front-end; it takes no -kb/-snapshot/-synthetic"))
		}
		shardURLs := parsePeers(*peers)
		opt := cluster.Options{
			HedgeDelay:      *hedge,
			HedgePercentile: *hedgePct,
			FailAfter:       *failAfter,
			ProbeInterval:   *probeEvery,
		}
		g, err := cluster.FromURLs(*clusterNm, *seed, shardURLs, opt, shard.RowCap(*maxRows))
		if err != nil {
			fatal(err)
		}
		clusterGroup = g
		serve = g
		defer g.Close()
		log.Printf("sparqld: federating %q over %d remote shard(s) on %s (hedge=%s probe=%s)",
			*clusterNm, len(shardURLs), *addr, *hedge, *probeEvery)
	case *snapshot != "":
		if len(paths) == 0 {
			fatal(fmt.Errorf("-snapshot %q matches no files", *snapshot))
		}
		if len(paths) > 1 {
			// A shard set restarts as a federation group; each snapshot
			// embeds the whole KB's planner statistics, so the group is
			// byte-identical to the endpoint that wrote the shards.
			g, err := shard.GroupFromSnapshotsRestricted(*seed, quota, paths)
			if err != nil {
				fatal(err)
			}
			serve = g
			log.Printf("sparqld: serving %q from %d mapped shard snapshot(s) on %s", g.Name(), len(paths), *addr)
			break
		}
		var err error
		if base, err = kb.OpenSnapshot(paths[0]); err != nil {
			fatal(err)
		}
		if i, n, ok := shard.PartitionIndex(base.Name()); ok && n > 1 {
			// A lone shard file must not masquerade as the whole KB —
			// unless this process is that shard's data node.
			if *shardOf == fmt.Sprintf("%d/%d", i, n) {
				serve = endpoint.NewLocalRestricted(base, *seed, quota)
				log.Printf("sparqld: serving shard %q (%d facts, mmap=%v) on %s", base.Name(), base.Size(), base.Mapped(), *addr)
				*shardOf = "" // consumed
				break
			}
			fatal(fmt.Errorf("%s holds shard %q of a %d-shard set; pass the complete set or -shard-of %d/%d", paths[0], base.Name(), n, i, n))
		}
	case *synthetic != "":
		var err error
		if base, err = syntheticKB(*synthetic, *side); err != nil {
			fmt.Fprintln(os.Stderr, "sparqld:", err)
			os.Exit(2)
		}
	case *kbPath != "":
		var err error
		if base, err = kb.LoadFile("kb", *kbPath); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "sparqld: need -kb <file>, -snapshot <file(s)>, -synthetic tiny|paper or -peers <urls>")
		os.Exit(2)
	}

	if serve == nil && *shardOf != "" {
		i, n, err := parseShardOf(*shardOf)
		if err != nil {
			fatal(err)
		}
		part := kb.Partition(base, n)[i]
		serve = endpoint.NewLocalRestricted(part, *seed, quota)
		log.Printf("sparqld: serving shard %q (%d of %d facts) on %s", part.Name(), part.Size(), base.Size(), *addr)
	}
	if serve == nil {
		if *shards > 1 {
			serve = shard.PartitionedRestricted(base, *shards, *seed, quota)
		} else {
			serve = endpoint.NewLocalRestricted(base, *seed, quota)
		}
		log.Printf("sparqld: serving %q (%d facts, %d relations, %d shard(s), mmap=%v) on %s",
			base.Name(), base.Size(), len(base.Relations()), *shards, base.Mapped(), *addr)
	}
	var adm *endpoint.Admission
	if *maxInflight > 0 {
		// Admission wraps the whole serving stack (single endpoint,
		// shard group or cluster front-end alike): at most -max-inflight
		// queries execute at once, -queue callers wait (for at most
		// -queue-timeout), and everything past that is shed as HTTP 429
		// with the overload marker — retriable, so hedged cluster
		// clients fail over to a less-loaded replica.
		adm = endpoint.NewAdmission(serve, endpoint.Limits{
			MaxInFlight:  *maxInflight,
			Queue:        *queue,
			QueueTimeout: *queueTimeout,
		})
		serve = adm
		log.Printf("sparqld: admission control: max-inflight=%d queue=%d queue-timeout=%s",
			*maxInflight, *queue, *queueTimeout)
	}
	mux, vars := newServingMux(serve, clusterGroup, adm)
	expvar.Publish("sofya", expvar.Func(vars))
	if err := serveHTTP(*addr, mux, *drain); err != nil {
		fatal(err)
	}
	log.Print("sparqld: shut down cleanly")
}

// flagConflicts refuses a set flag the mode the others select would
// ignore: a -peers front-end keeps no query budget of its own (its data
// nodes do) and serves the partition its peers make up; a set of
// snapshotFiles > 1 shard snapshots is served as the partition it is;
// a -shard-of data node serves its one shard unsharded. set holds the
// names of the flags given on the command line.
func flagConflicts(set map[string]bool, snapshotFiles int) error {
	for _, c := range []struct {
		mode, ignored string
		on            bool
	}{
		{"peers", "max-queries", set["peers"]},
		{"peers", "shards", set["peers"]},
		{"peers", "shard-of", set["peers"]},
		{"snapshot", "shard-of", snapshotFiles > 1},
		{"snapshot", "shards", snapshotFiles > 1},
		{"shard-of", "shards", set["shard-of"]},
	} {
		if c.on && set[c.ignored] {
			mode := "-" + c.mode
			if c.mode == "snapshot" {
				mode = fmt.Sprintf("-snapshot of %d shard files", snapshotFiles)
			}
			return fmt.Errorf("%s ignores -%s: drop one of the two", mode, c.ignored)
		}
	}
	return nil
}

// reqMetrics counts the query handler's traffic for /debug/vars.
type reqMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64 // non-2xx answers
	totalNS  atomic.Int64
	maxNS    atomic.Int64
}

// statusRecorder captures the handler's status code for the metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes (the wire protocol needs them).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newServingMux assembles the serving surface: the query handler at /,
// liveness at /healthz, expvar counters at /debug/vars, and pprof under
// /debug/pprof/ — the "measured, not asserted" serving contract. vars is
// what main publishes as the expvar "sofya" (a name is published once a
// process, and a test serves several muxes).
func newServingMux(serve endpoint.Endpoint, cg *cluster.Group, adm *endpoint.Admission) (mux *http.ServeMux, vars func() any) {
	m := &reqMetrics{}
	sparqlHandler := endpoint.NewServerEndpoint(serve)
	mux = http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		sparqlHandler.ServeHTTP(rec, r)
		d := time.Since(start).Nanoseconds()
		m.requests.Add(1)
		m.totalNS.Add(d)
		for {
			max := m.maxNS.Load()
			if d <= max || m.maxNS.CompareAndSwap(max, d) {
				break
			}
		}
		if rec.status >= 400 {
			m.errors.Add(1)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":   "ok",
			"endpoint": serve.Name(),
			"requests": m.requests.Load(),
		})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux, servingVars(serve, cg, adm, m)
}

// servingVars renders the endpoint's counters for expvar: HTTP request
// latency, endpoint query/row statistics, admission-control sheds, and
// (for a cluster front-end) per-replica health and traffic.
func servingVars(serve endpoint.Endpoint, cg *cluster.Group, adm *endpoint.Admission, m *reqMetrics) func() any {
	return func() any {
		vars := map[string]any{
			"endpoint": serve.Name(),
			"http": map[string]int64{
				"requests":         m.requests.Load(),
				"errors":           m.errors.Load(),
				"total_latency_ns": m.totalNS.Load(),
				"max_latency_ns":   m.maxNS.Load(),
			},
		}
		if sr, ok := serve.(endpoint.StatsReporter); ok {
			st := sr.Stats()
			vars["queries"] = st.Queries
			vars["rows"] = st.Rows
			vars["truncations"] = st.Truncations
			vars["denied"] = st.Denied
		}
		if adm != nil {
			st := adm.AdmissionStats()
			vars["admission"] = map[string]any{
				"admitted":        st.Admitted,
				"queued":          st.Queued,
				"shed":            st.Shed(),
				"shed_queue_full": st.ShedQueueFull,
				"shed_timeout":    st.ShedTimeout,
				"in_flight":       st.InFlight,
				"waiting":         st.Waiting,
			}
		}
		if cg != nil {
			var sets []any
			for i, set := range cg.ReplicaSets() {
				var reps []any
				for _, st := range set.Status() {
					reps = append(reps, map[string]any{
						"name":     st.Name,
						"healthy":  st.Healthy,
						"fails":    st.Fails,
						"requests": st.Requests,
						"errors":   st.Errors,
					})
				}
				sets = append(sets, map[string]any{"shard": i, "replicas": reps})
			}
			vars["cluster"] = sets
		}
		return vars
	}
}

// parsePeers splits a -peers argument: commas separate shards, pipes
// separate a shard's replicas.
func parsePeers(arg string) [][]string {
	var shards [][]string
	for _, slot := range strings.Split(arg, ",") {
		var reps []string
		for _, u := range strings.Split(slot, "|") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		if len(reps) > 0 {
			shards = append(shards, reps)
		}
	}
	return shards
}

// syntheticKB generates the -synthetic world and picks its -side; a
// name neither switch knows is an error naming the flag.
func syntheticKB(world, side string) (*kb.KB, error) {
	spec, err := synth.SpecNamed(world)
	if err != nil {
		return nil, fmt.Errorf("-synthetic: %w", err)
	}
	k, err := synth.Generate(spec).Side(side)
	if err != nil {
		return nil, fmt.Errorf("-side: %w", err)
	}
	return k, nil
}

// parseShardOf parses a -shard-of 'i/n' argument.
func parseShardOf(arg string) (i, n int, err error) {
	if _, err := fmt.Sscanf(arg, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard-of %q: want 'i/n'", arg)
	}
	if n < 1 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("bad -shard-of %q: need 0 <= i < n", arg)
	}
	return i, n, nil
}

// serveHTTP runs handler on a configured http.Server — read-header and
// idle timeouts instead of the bare ListenAndServe defaults — and
// drains in-flight requests for up to the drain window when SIGINT or
// SIGTERM arrives, force-closing whatever remains after it.
func serveHTTP(addr string, handler http.Handler, drain time.Duration) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		log.Printf("sparqld: %s received, draining for up to %s", s, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Drain window elapsed with connections still open: close
			// them rather than hang the restart.
			err = errors.Join(err, srv.Close())
		}
		done <- err
	}()
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-done
}

// snapshotPaths expands a -snapshot argument: comma-separated parts,
// each a literal path or a glob pattern. A malformed pattern is an
// error, not a literal path — the open failure it would turn into
// later points at the wrong problem.
func snapshotPaths(arg string) ([]string, error) {
	var paths []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		matches, err := filepath.Glob(part)
		if err != nil {
			return nil, fmt.Errorf("bad -snapshot pattern %q: %w", part, err)
		}
		if len(matches) > 0 {
			paths = append(paths, matches...)
			continue
		}
		paths = append(paths, part)
	}
	return paths, nil
}
