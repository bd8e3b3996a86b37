package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// TestShardSnapshotsServeLikeTheWhole drives the two binaries as a
// deployment does: kbgen -spec tiny -snapshot -shards 3 writes the world,
// one sparqld serves the three yago shard snapshots as a federation group
// and another the whole yago snapshot, and the group must answer the
// aligner's sample, overlap and object probes — each alone as a stream
// (stream=1), and each kind as one group of streams (multi=1) — with the
// whole snapshot's bytes.
func TestShardSnapshotsServeLikeTheWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs kbgen and sparqld")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to build the binaries with")
	}
	bin, world := t.TempDir(), t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin, "sofya/cmd/kbgen", "sofya/cmd/sparqld")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	if out, err := exec.Command(filepath.Join(bin, "kbgen"), "-spec", "tiny", "-out", world, "-snapshot", "-shards", "3").CombinedOutput(); err != nil {
		t.Fatalf("kbgen: %v\n%s", err, out)
	}
	shards, err := filepath.Glob(filepath.Join(world, "yago-shard-*-of-3.snap"))
	if err != nil || len(shards) != 3 {
		t.Fatalf("kbgen wrote the shard snapshots %q (%v), want 3", shards, err)
	}
	whole := filepath.Join(world, "yago.snap")
	group := serve(t, filepath.Join(bin, "sparqld"), filepath.Join(world, "yago-shard-*-of-3.snap"), `serving "yago" from 3 mapped shard snapshot(s)`)
	monolith := serve(t, filepath.Join(bin, "sparqld"), whole, `serving "yago"`)

	k, err := kb.OpenSnapshot(whole)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	rels, subjects := largestRelations(k, 3, 4)
	if len(rels) < 3 {
		t.Fatalf("the world has %d relations, want 3", len(rels))
	}
	probes := map[string][]string{}
	add := func(kind, tmpl string, params []string, args ...sparql.Arg) {
		t.Helper()
		tm, err := sparql.ParseTemplate(tmpl, params...)
		if err != nil {
			t.Fatal(err)
		}
		text, err := tm.Text(args...)
		if err != nil {
			t.Fatal(err)
		}
		probes[kind] = append(probes[kind], text)
	}
	for i, r := range rels {
		for _, n := range []int{5, 60, 400} {
			add("sample", sampling.TmplSample, []string{"r", "n"}, sparql.IRIArg(r), sparql.IntArg(n))
		}
		for _, b := range rels {
			if b != r {
				add("overlap", sampling.TmplOverlap, []string{"a", "b", "n"}, sparql.IRIArg(r), sparql.IRIArg(b), sparql.IntArg(200+i))
			}
		}
		for _, x := range subjects[i] {
			add("objects", sampling.TmplObjects, []string{"x", "r"}, sparql.IRIArg(x), sparql.IRIArg(r))
		}
	}

	withRows := 0
	for kind, texts := range probes {
		forms := []url.Values{{"multi": {"1"}, "query": texts, "stream": {"1"}}}
		for _, text := range texts {
			forms = append(forms, url.Values{"query": {text}, "stream": {"1"}})
		}
		for _, form := range forms {
			wantType, want := post(t, monolith, form)
			gotType, got := post(t, group, form)
			if gotType != wantType || !bytes.Equal(got, want) {
				t.Errorf("%s %v:\ngroup %s\n%s\nwhole snapshot %s\n%s", kind, form, gotType, got, wantType, want)
			}
			if bytes.Contains(want, []byte(`{"rows":`)) {
				withRows++
			}
		}
	}
	if withRows < 20 {
		t.Fatalf("only %d answers held rows: the probes found too little of the world", withRows)
	}
}

// serve starts sparqld on a free loopback port over the snapshot
// argument, waits until it answers, and returns its endpoint URL; the
// process is killed when the test ends. Its log must hold logLine.
func serve(t *testing.T, sparqld, snapshot, logLine string) string {
	t.Helper()
	addr := freeAddr(t)
	// The log goes to a file the process writes itself: a buffer would be
	// filled by a goroutine of os/exec while this one reads it.
	log, err := os.Create(filepath.Join(t.TempDir(), "sparqld.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	logged := func() string { b, _ := os.ReadFile(log.Name()); return string(b) }
	cmd := exec.Command(sparqld, "-snapshot", snapshot, "-addr", addr)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-exited
	})
	endpoint := "http://" + addr + "/sparql"
	ask := endpoint + "?query=" + url.QueryEscape("ASK { ?s ?p ?o }")
	for deadline := time.Now().Add(30 * time.Second); ; {
		select {
		case err := <-exited:
			t.Fatalf("sparqld -snapshot %s exited: %v\n%s", snapshot, err, logged())
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ask, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sparqld -snapshot %s did not answer within 30s: %v\n%s", snapshot, err, logged())
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The line is logged before the listener opens, so it is in.
	if !strings.Contains(logged(), logLine) {
		t.Fatalf("sparqld -snapshot %s logged\n%s\nwant a line holding %q", snapshot, logged(), logLine)
	}
	return endpoint
}

// freeAddr finds a loopback port below Linux's ephemeral range
// (32768–60999), so that no httptest server of a test binary running
// beside this one is handed it between this check and sparqld's listen.
func freeAddr(t *testing.T) string {
	t.Helper()
	for port := 20000 + rand.IntN(10000); port < 32768; port++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			ln.Close()
			return ln.Addr().String()
		}
	}
	t.Fatal("no free loopback port below 32768")
	return ""
}

// post sends a form and returns the answer's media type and body.
func post(t *testing.T, endpoint string, form url.Values) (string, []byte) {
	t.Helper()
	resp, err := http.PostForm(endpoint, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %v: status %d, %v\n%s", endpoint, form, resp.StatusCode, err, body)
	}
	return resp.Header.Get("Content-Type"), body
}

// largestRelations returns the n relations of k with the most facts,
// and for each the first m of its subjects in term order.
func largestRelations(k *kb.KB, n, m int) (rels []string, subjects [][]string) {
	bySubject := map[string]map[string]bool{}
	for _, tr := range k.Triples() {
		if tr.P.Kind != rdf.IRI || tr.S.Kind != rdf.IRI {
			continue
		}
		if bySubject[tr.P.Value] == nil {
			bySubject[tr.P.Value] = map[string]bool{}
			rels = append(rels, tr.P.Value)
		}
		bySubject[tr.P.Value][tr.S.Value] = true
	}
	slices.SortFunc(rels, func(a, b string) int {
		return cmp.Or(len(bySubject[b])-len(bySubject[a]), strings.Compare(a, b))
	})
	rels = rels[:min(n, len(rels))]
	for _, r := range rels {
		var subs []string
		for s := range bySubject[r] {
			subs = append(subs, s)
		}
		slices.Sort(subs)
		subjects = append(subjects, subs[:min(m, len(subs))])
	}
	return rels, subjects
}
