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
// the pair list is stable), and the accepted alignment list is a
// deterministic corruption of it — the last two gold pairs dropped and
// three fabricated rules added.
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

	// Accepted: every gold pair except the last two (false negatives),
	// plus three fabricated rules (false positives).
	var all []core.Alignment
	for _, p := range pairs[:len(pairs)-2] {
		all = append(all, core.Alignment{Rule: ilp.Rule{Body: p[0], Head: p[1]}, Accepted: true})
	}
	for _, b := range []string{"http://d/fake1", "http://d/fake2", "http://d/fake3"} {
		all = append(all, core.Alignment{Rule: ilp.Rule{Body: b, Head: "http://y/fakeHead"}, Accepted: true})
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
