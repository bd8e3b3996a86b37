package eval

import (
	"math"
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/ilp"
	"sofya/internal/synth"
)

// goldenWorld builds the tiny fixed world the golden metrics run on:
// the gold standard comes from the synthetic generator (fixed seed, so
// the pair list is stable), and the "predicted" alignment list is a
// deterministic corruption of it — the first miss fraction of gold
// pairs dropped, a fixed set of false positives added, each with a
// confidence that encodes its rank.
func goldenWorld(t *testing.T) (*Gold, []core.Alignment) {
	t.Helper()
	spec := synth.TinySpec()
	spec.Seed = 2016
	w := synth.Generate(spec)

	var pairs [][2]string
	for _, p := range w.Truth.DbpToYago {
		pairs = append(pairs, [2]string{p.Body, p.Head})
	}
	if len(pairs) < 8 {
		t.Fatalf("tiny world gold too small: %d pairs", len(pairs))
	}
	gold := NewGold(pairs)

	// Predictions: every gold pair except the last two (false
	// negatives), plus three fabricated rules (false positives), with
	// confidences spread over (0.3, 1.0] so threshold sweeps cut at
	// known points.
	var all []core.Alignment
	kept := pairs[:len(pairs)-2]
	for i, p := range kept {
		conf := 1.0 - 0.5*float64(i)/float64(len(kept)) // (0.5, 1.0]
		all = append(all, core.Alignment{
			Rule:       ilp.Rule{Body: p[0], Head: p[1]},
			Accepted:   true,
			Confidence: conf,
			Support:    5 + i,
		})
	}
	fakes := []string{"http://d/fake1", "http://d/fake2", "http://d/fake3"}
	for i, b := range fakes {
		all = append(all, core.Alignment{
			Rule:       ilp.Rule{Body: b, Head: "http://y/fakeHead"},
			Accepted:   true,
			Confidence: 0.4 - 0.02*float64(i),
			Support:    3,
			// the last fake carries recorded contradictions, so
			// UBS-respecting scoring drops it
			Contradictions: i * 2,
		})
	}
	return gold, all
}

// TestGoldenScore pins the exact contingency counts of the corrupted
// prediction list: TP = |gold|-2, FP = 3, FN = 2.
func TestGoldenScore(t *testing.T) {
	gold, all := goldenWorld(t)
	got := Score(all, gold)
	wantTP := gold.Size() - 2
	if got.TP != wantTP || got.FP != 3 || got.FN != 2 {
		t.Fatalf("Score = %+v, want tp=%d fp=3 fn=2", got, wantTP)
	}
	wantP := float64(wantTP) / float64(wantTP+3)
	wantR := float64(wantTP) / float64(gold.Size())
	wantF1 := 2 * wantP * wantR / (wantP + wantR)
	if math.Abs(got.Precision-wantP) > 1e-12 ||
		math.Abs(got.Recall-wantR) > 1e-12 ||
		math.Abs(got.F1-wantF1) > 1e-12 {
		t.Fatalf("Score metrics = %+v, want P=%v R=%v F1=%v", got, wantP, wantR, wantF1)
	}
	if !strings.Contains(got.String(), "tp=") {
		t.Fatalf("String() = %q", got.String())
	}
}

// TestGoldenScoreAt: thresholding at 0.45 removes exactly the three
// fakes (confidences ≤ 0.4); at 0.45 with UBS respected the result is
// the same; at 0 with UBS respected only the contradicted fake drops.
func TestGoldenScoreAt(t *testing.T) {
	gold, all := goldenWorld(t)
	wantTP := gold.Size() - 2

	clean := ScoreAt(all, gold, 0.45, 0, false, 1)
	if clean.TP != wantTP || clean.FP != 0 || clean.FN != 2 {
		t.Fatalf("ScoreAt(0.45) = %+v", clean)
	}
	if clean.Precision != 1.0 {
		t.Fatalf("precision at tau=0.45 = %v, want 1", clean.Precision)
	}

	ubs := ScoreAt(all, gold, 0, 0, true, 2)
	// fakes carry 0, 2, 4 contradictions; minContradictions=2 drops two
	if ubs.FP != 1 {
		t.Fatalf("UBS-respecting ScoreAt FP = %d, want 1 (%+v)", ubs.FP, ubs)
	}

	// min support gate: every gold prediction has support >= 5, fakes 3
	sup := ScoreAt(all, gold, 0, 5, false, 1)
	if sup.FP != 0 || sup.TP != wantTP {
		t.Fatalf("support-gated ScoreAt = %+v", sup)
	}
}

// TestGoldenSweepAndBestTau: the sweep is monotone in the obvious way
// (recall never rises as tau grows) and BestAvgF1 lands on a tau that
// excludes the fakes but keeps every gold prediction.
func TestGoldenSweepAndBestTau(t *testing.T) {
	gold, all := goldenWorld(t)
	taus := DefaultTaus()
	sweep := SweepThresholds(all, gold, taus, 0)
	if len(sweep) != len(taus) {
		t.Fatalf("sweep has %d points, want %d", len(sweep), len(taus))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].PRF.Recall > sweep[i-1].PRF.Recall+1e-12 {
			t.Fatalf("recall rose with tau: %v -> %v", sweep[i-1], sweep[i])
		}
	}
	bestTau, prfs := BestAvgF1([][]core.Alignment{all}, []*Gold{gold}, taus, 0)
	if bestTau < 0.45 || bestTau > 0.5 {
		t.Fatalf("best tau = %v, want the cut just above the fakes (0.45..0.5]", bestTau)
	}
	if prfs[0].FP != 0 {
		t.Fatalf("best-tau PRF = %+v, want FP=0", prfs[0])
	}
}

// TestGoldenTableRendering pins the exact rendering of a small metric
// table in both output formats.
func TestGoldenTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"measure", "P", "R"}}
	tb.Add("pca", 0.925, 0.5)
	tb.Add("cwa", 1, "n/a")
	wantPlain := "measure  P     R   \n" +
		"-------  ----  ----\n" +
		"pca      0.93  0.50\n" +
		"cwa      1     n/a \n"
	if got := tb.String(); got != wantPlain {
		t.Fatalf("plain table:\n%q\nwant:\n%q", got, wantPlain)
	}
	wantMD := "| measure | P | R |\n| --- | --- | --- |\n| pca | 0.93 | 0.50 | \n"
	gotMD := tb.Markdown()
	if !strings.HasPrefix(gotMD, "| measure | P | R |\n| --- | --- | --- |\n| pca | 0.93 | 0.50 |") {
		t.Fatalf("markdown table:\n%q\nwant prefix:\n%q", gotMD, wantMD)
	}
}
