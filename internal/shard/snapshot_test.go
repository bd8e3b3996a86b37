package shard

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/sparql"
	"sofya/internal/synth"
)

// The parsed-vs-snapshot differential oracle: an endpoint (or shard
// group) over snapshot-loaded KBs must answer byte-identically to one
// over the KB that parsed the same N-Triples — Select, Ask, prepared
// streaming, ORDER BY RAND() probes — unsharded and at every shard
// count. This is the restart guarantee: a server standing back up from
// snapshot files is indistinguishable from one that re-parsed.

// parsedWorldKB reproduces the production load path: the synthetic
// world serialized to N-Triples and parsed back, so interning order is
// exactly what a `sparqld -kb yago.nt` run would see.
func parsedWorldKB(t testing.TB) *kb.KB {
	t.Helper()
	w := synth.Generate(synth.TinySpec())
	var buf bytes.Buffer
	if err := w.Yago.WriteNT(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := kb.Load(w.Yago.Name(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// writeShardSnapshots partitions src and writes one snapshot per shard,
// returning the paths deliberately out of partition order (the loader
// must reorder by the recorded shard names).
func writeShardSnapshots(t *testing.T, src *kb.KB, n int, dir string) []string {
	t.Helper()
	paths := make([]string, 0, n)
	for i, sh := range kb.Partition(src, n) {
		p := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.snap", i, n))
		if err := sh.WriteSnapshotFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Reverse so the loader proves it orders by shard name, not by path.
	for i, j := 0, len(paths)-1; i < j; i, j = i+1, j-1 {
		paths[i], paths[j] = paths[j], paths[i]
	}
	return paths
}

func TestSnapshotGroupOracle(t *testing.T) {
	parsed := parsedWorldKB(t)
	const seed = 13
	local := endpoint.NewLocal(parsed, seed)

	w := synth.Generate(synth.TinySpec())
	rel, rel2 := entityRelations(t, w)
	s, o := sampleFact(t, local, rel)
	selects, asks := oracleQueries(rel, rel2, s, o)

	// Unsharded: a whole-KB snapshot served by a plain Local.
	wholePath := filepath.Join(t.TempDir(), "whole.snap")
	if err := parsed.WriteSnapshotFile(wholePath); err != nil {
		t.Fatal(err)
	}
	wholeKB, err := kb.OpenSnapshot(wholePath)
	if err != nil {
		t.Fatal(err)
	}
	defer wholeKB.Close()
	endpoints := map[string]endpoint.Endpoint{
		"snapshot-unsharded": endpoint.NewLocal(wholeKB, seed),
	}

	// Sharded: snapshot files reloaded into federation groups.
	for _, n := range oracleShardCounts {
		paths := writeShardSnapshots(t, parsed, n, t.TempDir())
		g, err := GroupFromSnapshots(seed, paths)
		if err != nil {
			t.Fatalf("GroupFromSnapshots n=%d: %v", n, err)
		}
		endpoints[fmt.Sprintf("snapshot-sharded-%d", n)] = g
	}

	for name, ep := range endpoints {
		for _, q := range selects {
			want, err := local.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("local %q: %v", q, err)
			}
			got, err := ep.SelectCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("%s Select diverges for %q:\n--- snapshot ---\n%s\n--- parsed ---\n%s",
					name, q, renderResult(got), renderResult(want))
			}
		}
		for _, q := range asks {
			want, err := local.AskCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("local %q: %v", q, err)
			}
			got, err := ep.AskCtx(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			if got != want {
				t.Errorf("%s Ask(%q) = %v, want %v", name, q, got, want)
			}
		}
	}
}

func TestSnapshotGroupPreparedOracle(t *testing.T) {
	parsed := parsedWorldKB(t)
	const seed = 17
	local := endpoint.NewLocal(parsed, seed)
	w := synth.Generate(synth.TinySpec())
	rel, rel2 := entityRelations(t, w)
	s, o := sampleFact(t, local, rel)

	const (
		tmplSample  = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
		tmplObjects = "SELECT ?y WHERE { $x $r ?y }"
		tmplPreds   = "SELECT ?p WHERE { $x ?p $y }"
	)
	type probe struct {
		tmpl   string
		params []string
		args   []sparql.Arg
	}
	probes := []probe{
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel), sparql.IntArg(5)}},
		{tmplSample, []string{"r", "n"}, []sparql.Arg{sparql.IRIArg(rel2), sparql.IntArg(300)}},
		{tmplObjects, []string{"x", "r"}, []sparql.Arg{sparql.IRIArg(s), sparql.IRIArg(rel)}},
		{tmplPreds, []string{"x", "y"}, []sparql.Arg{sparql.IRIArg(s), sparql.IRIArg(o)}},
	}

	for _, n := range oracleShardCounts {
		paths := writeShardSnapshots(t, parsed, n, t.TempDir())
		g, err := GroupFromSnapshots(seed, paths)
		if err != nil {
			t.Fatalf("GroupFromSnapshots n=%d: %v", n, err)
		}
		for pi, pr := range probes {
			lp, err := local.Prepare(pr.tmpl, pr.params...)
			if err != nil {
				t.Fatal(err)
			}
			gp, err := g.Prepare(pr.tmpl, pr.params...)
			if err != nil {
				t.Fatalf("n=%d probe %d Prepare: %v", n, pi, err)
			}
			want, err := lp.SelectCtx(context.Background(), pr.args...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := gp.SelectCtx(context.Background(), pr.args...)
			if err != nil {
				t.Fatalf("n=%d probe %d Select: %v", n, pi, err)
			}
			if renderResult(got) != renderResult(want) {
				t.Errorf("n=%d probe %d prepared Select diverges:\n--- snapshot ---\n%s\n--- parsed ---\n%s",
					n, pi, renderResult(got), renderResult(want))
			}
			lr, err := lp.Stream(context.Background(), pr.args...)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := gp.Stream(context.Background(), pr.args...)
			if err != nil {
				t.Fatalf("n=%d probe %d Stream: %v", n, pi, err)
			}
			wantS, gotS := drainStream(t, lr), drainStream(t, gr)
			if renderResult(gotS) != renderResult(wantS) {
				t.Errorf("n=%d probe %d prepared Stream diverges:\n--- snapshot ---\n%s\n--- parsed ---\n%s",
					n, pi, renderResult(gotS), renderResult(wantS))
			}
		}
	}
}

func TestPartitionIndex(t *testing.T) {
	for _, tc := range []struct {
		name string
		i, n int
		ok   bool
	}{
		{"yago/shard-1-of-3", 1, 3, true},
		{"a/b/shard-0-of-7", 0, 7, true},
		{"yago", 0, 0, false},
		{"yago/shard-3-of-3", 0, 0, false}, // index out of range
		{"yago/shard-x-of-3", 0, 0, false},
	} {
		i, n, ok := PartitionIndex(tc.name)
		if ok != tc.ok || (ok && (i != tc.i || n != tc.n)) {
			t.Errorf("PartitionIndex(%q) = %d,%d,%v, want %d,%d,%v", tc.name, i, n, ok, tc.i, tc.n, tc.ok)
		}
	}
}

func TestGroupFromSnapshotsErrors(t *testing.T) {
	parsed := parsedWorldKB(t)
	dir := t.TempDir()
	paths := writeShardSnapshots(t, parsed, 3, dir)

	if _, err := GroupFromSnapshots(1, nil); err == nil {
		t.Error("no paths: want error")
	}
	if _, err := GroupFromSnapshots(1, paths[:2]); err == nil {
		t.Error("incomplete shard set: want error")
	}
	if _, err := GroupFromSnapshots(1, []string{paths[0], paths[0], paths[1]}); err == nil {
		t.Error("duplicate shard: want error")
	}
	whole := filepath.Join(dir, "whole.snap")
	if err := parsed.WriteSnapshotFile(whole); err != nil {
		t.Fatal(err)
	}
	if _, err := GroupFromSnapshots(1, []string{whole, paths[0]}); err == nil {
		t.Error("whole-KB snapshot mixed into a shard set: want error")
	}
	// A single whole-KB snapshot serves as a one-shard group.
	g, err := GroupFromSnapshots(1, []string{whole})
	if err != nil {
		t.Fatalf("single whole-KB snapshot: %v", err)
	}
	if got, want := g.Name(), parsed.Name(); got != want {
		t.Errorf("group name = %q, want %q", got, want)
	}
}
