package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
)

// probeLog is what a recording endpoint saw: every execution that
// reached it, as "endpoint|call|template|arguments", and the size of
// every SelectBatch group.
type probeLog struct {
	mu     sync.Mutex
	calls  []string
	groups []int
}

func (l *probeLog) add(name, call, tmpl string, args []sparql.Arg) {
	keys := make([]string, len(args))
	for i, a := range args {
		keys[i] = a.Key()
	}
	l.mu.Lock()
	l.calls = append(l.calls, name+"|"+call+"|"+tmpl+"|"+strings.Join(keys, " "))
	l.mu.Unlock()
}

// digest fingerprints the multiset of calls and the multiset of group
// sizes: what a pass asked, whatever the order its stages ran in.
func (l *probeLog) digest() (calls int, sum uint64) {
	sort.Strings(l.calls)
	sort.Ints(l.groups)
	h := fnv.New64a()
	fmt.Fprint(h, l.calls, l.groups)
	return len(l.calls), h.Sum64()
}

// recEndpoint records the probes an aligner sends through it. Its
// handles take SelectBatch — so a group is seen as the group it was sent
// as — and, when batches is set, StreamBatch too, both by running the
// tuples one by one on the endpoint they wrap.
type recEndpoint struct {
	endpoint.Endpoint
	log     *probeLog
	batches bool
}

func (e recEndpoint) Prepare(tmpl string, params ...string) (endpoint.PreparedQuery, error) {
	pq, err := e.Endpoint.Prepare(tmpl, params...)
	h := recHandle{PreparedQuery: pq, name: e.Name(), tmpl: tmpl, log: e.log}
	if e.batches {
		return recBatched{h}, err
	}
	return h, err
}

type recHandle struct {
	endpoint.PreparedQuery
	name, tmpl string
	log        *probeLog
}

func (h recHandle) Stream(ctx context.Context, args ...sparql.Arg) (endpoint.Rows, error) {
	h.log.add(h.name, "Stream", h.tmpl, args)
	return h.PreparedQuery.Stream(ctx, args...)
}

func (h recHandle) SelectCtx(ctx context.Context, args ...sparql.Arg) (*sparql.Result, error) {
	h.log.add(h.name, "SelectCtx", h.tmpl, args)
	return h.PreparedQuery.SelectCtx(ctx, args...)
}

func (h recHandle) SelectBatch(ctx context.Context, argSets [][]sparql.Arg) ([]*sparql.Result, error) {
	h.log.mu.Lock()
	h.log.groups = append(h.log.groups, len(argSets))
	h.log.mu.Unlock()
	for _, args := range argSets {
		h.log.add(h.name, "SelectBatch", h.tmpl, args)
	}
	return endpoint.SelectBatch(ctx, h.PreparedQuery, argSets)
}

type recBatched struct{ recHandle }

func (h recBatched) StreamBatch(ctx context.Context, argSets [][]sparql.Arg) (endpoint.RowSets, error) {
	return endpoint.StreamBatch(ctx, h.recHandle, argSets)
}

// alignAll aligns every relation of the paper world, both directions,
// through recording endpoints.
func alignAll(t *testing.T, parallelism int, batches bool) ([][]Alignment, *probeLog) {
	t.Helper()
	y, d, links := paperWorld()
	log := &probeLog{}
	ky := recEndpoint{endpoint.NewLocal(y, 11), log, batches}
	kd := recEndpoint{endpoint.NewLocal(d, 22), log, batches}
	cfg := UBSConfig()
	cfg.Parallelism = parallelism
	d2y := New(ky, kd, sampling.LinkView{Links: links, KIsA: true}, cfg)
	y2d := New(kd, ky, sampling.LinkView{Links: links, KIsA: false}, cfg)
	var out [][]Alignment
	for _, r := range []string{"creatorOf", "directedBy", "producedBy", "bornYear"} {
		als, err := d2y.AlignRelation(yNS + r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, als)
	}
	for _, r := range []string{"composerOf", "writerOf", "hasDirector", "hasProducer", "birthDate"} {
		als, err := y2d.AlignRelation(dNS + r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, als)
	}
	return out, log
}

// TestProbesOnANonGroupingEndpoint: against endpoints that do not group
// streams — Local, the decorators, a tracing wrapper — a pass issues the
// multiset of calls it issued before stages took ranges of items: a
// Stream where it streamed, a SelectBatch of the same tuples where it
// grouped. The digest was recorded at commit a620545, with this file's
// recording endpoints and no other change. Against endpoints that do
// group, the alignments and the multiset of tuples are the same, and
// only the groups grow.
func TestProbesOnANonGroupingEndpoint(t *testing.T) {
	const wantCalls, wantDigest = 649, uint64(0xfe72f1fb8a15e327)
	var ref [][]Alignment
	var tuples []string
	for _, parallelism := range []int{1, 4} {
		als, log := alignAll(t, parallelism, false)
		calls, digest := log.digest()
		t.Logf("parallelism %d: %d calls in %d groups, digest %#x", parallelism, calls, len(log.groups), digest)
		if calls != wantCalls || digest != wantDigest {
			t.Errorf("parallelism %d: %d calls, digest %#x; the parent's pass issued %d, digest %#x", parallelism, calls, digest, wantCalls, wantDigest)
		}
		if ref == nil {
			ref, tuples = als, log.calls
		} else if !reflect.DeepEqual(als, ref) {
			t.Errorf("parallelism %d: alignments differ", parallelism)
		}
	}
	als, log := alignAll(t, 4, true)
	log.digest()
	if !reflect.DeepEqual(als, ref) || !reflect.DeepEqual(log.calls, tuples) {
		t.Errorf("against endpoints that group streams: alignments equal %v, %d tuples for %d", reflect.DeepEqual(als, ref), len(log.calls), len(tuples))
	}
}
