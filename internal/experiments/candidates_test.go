package experiments

import (
	"reflect"
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/synth"
)

// TestCandidateAsymptoticsSweep exercises the sweep at two small
// inventory sizes. Timing columns are recorded, never asserted — CI
// machines are noisy — but the recall floors and the structural shape
// are hard requirements.
func TestCandidateAsymptoticsSweep(t *testing.T) {
	points, err := CandidateAsymptotics([]int{400, 800}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// the endpoint inventory can trail the spec by a few empty
		// relations (specializations that drew zero facts)
		if p.Relations < 390 || p.Sources == 0 {
			t.Fatalf("empty point: %+v", p)
		}
		if p.MassRecall < 0.85 {
			t.Errorf("score-mass recall %.3f < 0.85 at n=%d", p.MassRecall, p.Relations)
		}
		if p.SetRecall < 0.5 {
			t.Errorf("set recall %.3f < 0.5 at n=%d", p.SetRecall, p.Relations)
		}
	}
	if points[1].Relations <= points[0].Relations {
		t.Fatalf("inventory sizes not increasing: %+v", points)
	}
	out := RenderAsymptotics(points).String()
	for _, want := range []string{"target rels", "gen speedup", "mass recall"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCandidateDifferentialRecall is the end-to-end recall gate from
// the issue: on a seeded scale world, alignment inside the pruned
// top-k universe must retain at least 95% of the accepted rules the
// exact all-pairs universe produces.
func TestCandidateDifferentialRecall(t *testing.T) {
	s := NewSetup(synth.Generate(synth.ScaleSpec(600)))
	res, err := CandidateDifferential(s, core.UBSConfig(), 16, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sources != 60 || res.Relations < 580 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	if res.ExactAccepted == 0 {
		t.Fatal("exact arm accepted nothing — the gate is vacuous")
	}
	if res.AlignmentRecall < 0.95 {
		t.Errorf("alignment recall %.3f < 0.95 (exact %d, pruned %d accepted)",
			res.AlignmentRecall, res.ExactAccepted, res.PrunedAccepted)
	}
	if res.CandidateMassRecall < 0.85 {
		t.Errorf("candidate score-mass recall %.3f < 0.85", res.CandidateMassRecall)
	}
	out := RenderDifferential(res).String()
	for _, want := range []string{"exact all-pairs", "pruned top-16", "speedup"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	t.Logf("differential: %+v per-source speedup %.1fx", res, res.PerSourceSpeedup())
}

// TestRunPrunedSubsetOnTinyWorld pins the harness-level pruning
// invariants. Pruning is a real filter even at a top-k wider than the
// inventory — candidates with a zero blended score (no shared trigram,
// no sampled-extension overlap) never enter the universe — so the
// contract is containment, not identity: every rule the pruned run
// emits must appear in the exact run. Identity holds only with
// CandidateTopK off, which TestRunExactModeIsByteStable pins.
func TestRunPrunedSubsetOnTinyWorld(t *testing.T) {
	exact, err := tinySetup().Run(DbpToYago, core.UBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.UBSConfig()
	cfg.CandidateTopK = 64
	pruned, err := tinySetup().Run(DbpToYago, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type rule struct{ body, head string }
	inExact := map[rule]bool{}
	for _, al := range exact.All {
		inExact[rule{al.Rule.Body, al.Rule.Head}] = true
	}
	if len(pruned.All) == 0 || len(pruned.All) > len(exact.All) {
		t.Fatalf("pruned run emitted %d rules, exact %d", len(pruned.All), len(exact.All))
	}
	for _, al := range pruned.All {
		if !inExact[rule{al.Rule.Body, al.Rule.Head}] {
			t.Errorf("pruned rule %s => %s absent from exact run", al.Rule.Body, al.Rule.Head)
		}
	}
	// Precision must not drop when junk candidates are pruned away.
	if pruned.PRF.Precision+1e-9 < exact.PRF.Precision {
		t.Fatalf("pruned precision %.3f below exact %.3f", pruned.PRF.Precision, exact.PRF.Precision)
	}
	// No robust direction holds for total body-side traffic on a tiny
	// world: the index build adds ~|R'| sampling queries but pruning
	// saves validation and UBS probes of comparable magnitude. Both
	// arms must at least have queried.
	if pruned.QueriesBody == 0 || exact.QueriesBody == 0 {
		t.Fatal("missing query accounting")
	}
}

// TestRunExactModeIsByteStable pins the CandidateTopK-off contract:
// the zero value changes nothing, so two independent setups — one
// naming the field explicitly, one predating it — are deep-equal.
func TestRunExactModeIsByteStable(t *testing.T) {
	want, err := tinySetup().Run(DbpToYago, core.UBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.UBSConfig()
	cfg.CandidateTopK = 0
	got, err := tinySetup().Run(DbpToYago, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.All, got.All) {
		t.Fatal("exact-mode run diverges with candidate fields set but pruning off")
	}
	if want.QueriesBody != got.QueriesBody || want.QueriesHead != got.QueriesHead {
		t.Fatalf("exact-mode query accounting diverges: %d/%d vs %d/%d",
			want.QueriesHead, want.QueriesBody, got.QueriesHead, got.QueriesBody)
	}
}
