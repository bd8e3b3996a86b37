package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

const wasBornIn = "http://yago-knowledge.org/resource/wasBornIn"

// goldenWasBornIn is what sofya prints for wasBornIn on the tiny world,
// whatever the deployment shape behind the two endpoints.
const goldenWasBornIn = "ACCEPT  dbpedia:birthPlace(x, y) ⇒ yago:wasBornIn(x, y)  conf=1.00 pca=1.00 cwa=0.67 support=4/6 contradictions=0  [equivalent]\n"

// TestRunGolden: the alignment printed does not depend on -shards or
// -batch — -shards reaches the program through the flag alone, the
// aligner's Config has no field for it.
func TestRunGolden(t *testing.T) {
	for _, extra := range [][]string{
		{"-shards", "1"},
		{"-shards", "3"},
		{"-shards", "1", "-batch"},
		{"-shards", "3", "-batch", "-parallel", "4"},
	} {
		t.Run(strings.Join(extra, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-synthetic", "tiny", "-relation", wasBornIn}, extra...)
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if got := stdout.String(); got != goldenWasBornIn {
				t.Errorf("stdout:\n%swant:\n%s", got, goldenWasBornIn)
			}
			if !strings.Contains(stderr.String(), "# queries: K=") {
				t.Errorf("stderr lacks the query count:\n%s", stderr.String())
			}
			if batch := strings.Contains(stderr.String(), "# cache hits:"); batch != (len(extra) > 2) {
				t.Errorf("cache-hit line present = %v with %v:\n%s", batch, extra, stderr.String())
			}
		})
	}
}

// TestRunAllIdenticalAcrossShapes: every relation, rejected candidates
// included, prints the same at any -shards and with -batch.
func TestRunAllIdenticalAcrossShapes(t *testing.T) {
	var want string
	for _, extra := range [][]string{nil, {"-shards", "3"}, {"-batch"}, {"-shards", "3", "-batch"}} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-synthetic", "tiny", "-all", "-rejected"}, extra...)
		if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, stderr.String())
		}
		if want == "" {
			want = stdout.String()
			if !strings.Contains(want, goldenWasBornIn) || !strings.Contains(want, "reject  ") {
				t.Fatalf("unsharded -all -rejected output lacks the golden line or any rejection:\n%s", want)
			}
		} else if got := stdout.String(); got != want {
			t.Errorf("%v: stdout differs from the unsharded sequential run", extra)
		}
	}
}

// TestRunUsageErrors: a value no switch knows is refused by name, exit
// status 2, with nothing aligned — not run as ubs / d2y / tiny — and so
// is a flag the others would make the run ignore.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-synthetic", "tiny", "-all", "-method", "amie"}, `unknown -method "amie": want pca, cwa or ubs`},
		{[]string{"-synthetic", "tiny", "-all", "-direction", "both"}, `unknown -direction "both": want d2y or y2d`},
		{[]string{"-synthetic", "huge", "-all"}, `-synthetic: unknown world "huge": want tiny or paper`},
		{[]string{"-synthetic", "tiny"}, "need -relation <iri> or -all"},
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-synthetic", "tiny", "-all", "-topk", "4"}, "-topk is ignored without -candidates"},
		{[]string{"-synthetic", "tiny", "-all", "-candidx", "x.idx"}, "-candidx is ignored without -candidates"},
		{[]string{"-synthetic", "tiny", "-all", "-maxpostings", "8"}, "-maxpostings is ignored without -candidates"},
		{[]string{"-synthetic", "tiny", "-all", "-relation", "http://x/r"}, "-relation is ignored with -all"},
		{[]string{"-synthetic", "tiny", "-all", "-k", "k.nt"}, "-k is ignored with -synthetic"},
		{[]string{"-synthetic", "tiny", "-all", "-kprime", "kp.nt"}, "-kprime is ignored with -synthetic"},
		{[]string{"-synthetic", "tiny", "-all", "-links", "l.tsv"}, "-links is ignored with -synthetic"},
		{[]string{"-k", "k.nt", "-kprime", "kp.nt", "-links", "l.tsv", "-all", "-direction", "y2d"}, "-direction is ignored without -synthetic"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", tc.args, stdout.String())
		}
	}
}

// TestRunFailure: a run that cannot start is exit status 1.
func TestRunFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-all"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "need -k, -kprime and -links") {
		t.Errorf("stderr %q", stderr.String())
	}
}

// TestRunInterrupted: a run whose context ends — as main's does at
// SIGINT or SIGTERM — exits 1 with the cancellation named on stderr, and
// prints no alignment, sequential or batched.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{{"-synthetic", "tiny", "-all"}, {"-synthetic", "tiny", "-all", "-batch", "-parallel", "4"}} {
		var stdout, stderr bytes.Buffer
		if code := run(ctx, args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), context.Canceled.Error()) || stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}
