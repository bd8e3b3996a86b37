package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunGolden pins what -e table1,e3,e4 prints on the tiny world:
// Table 1, the threshold sweep and the query budget. Timings go to
// stderr, so stdout is the same on every run and at every -parallel.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tiny_table1_e3_e4.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-spec", "tiny", "-e", "table1,e3,e4", "-parallel", parallel}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d, stderr:\n%s", parallel, code, stderr.String())
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("-parallel %s: stdout:\n%swant:\n%s", parallel, got, want)
		}
		if !strings.Contains(stderr.String(), "# total time") {
			t.Errorf("-parallel %s: stderr lacks the total time:\n%s", parallel, stderr.String())
		}
	}
}

// TestRunUsageErrors: a misspelt experiment or world is a usage error
// (exit 2) that names what is accepted, and nothing runs.
func TestRunUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "tiny", "-e", "tabel1"}, `unknown -e experiment "tabel1": want a comma-separated list of all, table1, e2, e3, e4, e5, e6, e7, candidates, e9`},
		{[]string{"-spec", "tiny", "-e", "table1,,e4"}, `unknown -e experiment ""`},
		{[]string{"-spec", "huge", "-e", "table1"}, "-spec:"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q lacks %q", c.args, stderr.String(), c.want)
		}
	}
}
