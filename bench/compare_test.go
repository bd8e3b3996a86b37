package main

import (
	"io"
	"testing"

	"sofya/bench/harness"
)

func stat(med, q1, q3 float64) Stat { return Stat{Median: med, Q1: q1, Q3: q3} }

func TestJudge(t *testing.T) {
	lower := harness.MetricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := harness.MetricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name      string
		d         harness.MetricDef
		base, new Stat
		want      string
	}{
		{"lower rose past bound", lower, stat(10, 10, 10), stat(11.5, 11.5, 11.5), verdictWorse},
		{"lower rose within bound", lower, stat(10, 10, 10), stat(10.5, 10.5, 10.5), verdictSame},
		{"lower fell past bound", lower, stat(10, 10, 10), stat(8, 8, 8), verdictBetter},
		{"higher fell past bound", higher, stat(100, 100, 100), stat(85, 85, 85), verdictWorse},
		{"higher rose past bound", higher, stat(100, 100, 100), stat(120, 120, 120), verdictBetter},
		{"spread wider than bound", lower, stat(10, 9, 11), stat(12, 12, 12), verdictUnresolved},
		{"spread within bound", lower, stat(10, 9.6, 10.4), stat(12, 12, 12), verdictWorse},
	} {
		if _, got := judge(c.d, c.base, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 2 3 4", q1, med, q3)
	}
	if q1, med, q3 := quartiles([]float64{7}); q1 != 7 || med != 7 || q3 != 7 {
		t.Errorf("single value: %v %v %v", q1, med, q3)
	}
}

func report(opsPerS float64, failed int) *Report {
	r := &Report{Workloads: map[string]*WorkloadReport{}}
	for _, w := range harness.Workloads {
		wr := &WorkloadReport{Correct: failed == 0, Attempted: 100, Failed: failed, EndToEnd: map[string]Stat{}, PerLayer: map[string]Stat{}}
		for _, d := range harness.EndToEnd {
			wr.EndToEnd[d.Name] = stat(1, 1, 1)
		}
		wr.EndToEnd["ops_per_s"] = stat(opsPerS, opsPerS, opsPerS)
		r.Workloads[w] = wr
	}
	return r
}

func TestCompareReportsGates(t *testing.T) {
	if !compareReports(io.Discard, report(100, 0), report(98, 0)) {
		t.Error("a 2% dip inside the bound must pass")
	}
	if compareReports(io.Discard, report(100, 0), report(60, 0)) {
		t.Error("a 40% throughput drop must fail")
	}
	if compareReports(io.Discard, report(100, 0), report(100, 1)) {
		t.Error("a rise in failures must fail")
	}
}
