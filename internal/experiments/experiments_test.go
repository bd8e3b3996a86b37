package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/synth"
)

func tinySetup() *Setup {
	return NewSetup(synth.Generate(synth.TinySpec()))
}

func TestRunDirectionBasics(t *testing.T) {
	s := tinySetup()
	run, err := s.Run(DbpToYago, core.UBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if run.HeadsAligned != len(s.World.Report.YagoRelations) {
		t.Fatalf("heads aligned = %d", run.HeadsAligned)
	}
	if run.QueriesHead == 0 || run.QueriesBody == 0 {
		t.Fatal("no queries recorded")
	}
	if run.PRF.F1 <= 0 {
		t.Fatalf("F1 = %f", run.PRF.F1)
	}
	if run.Direction.String() != "dbpd ⊂ yago" {
		t.Fatalf("direction = %s", run.Direction)
	}
	if YagoToDbp.String() != "yago ⊂ dbpd" {
		t.Fatalf("direction = %s", YagoToDbp)
	}
}

// The headline reproduction claim on the tiny world: UBS precision and
// F1 beat both baselines in both directions. Loose bounds — this is a
// statistical system on a small world — but directionally strict.
func TestTable1ShapeOnTinyWorld(t *testing.T) {
	s := tinySetup()
	res, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var pcaRow, ubsRow Table1Row
	for _, r := range res.Rows {
		switch r.Method {
		case "pcaconf":
			pcaRow = r
		case "UBS pcaconf":
			ubsRow = r
		}
	}
	if ubsRow.D2Y.Precision < 0.7 || ubsRow.Y2D.Precision < 0.7 {
		t.Fatalf("UBS precision too low: %+v", ubsRow)
	}
	if ubsRow.D2Y.F1 <= pcaRow.D2Y.F1-0.05 {
		t.Fatalf("UBS F1 (%.2f) should not trail pcaconf (%.2f)", ubsRow.D2Y.F1, pcaRow.D2Y.F1)
	}
	// render includes the paper's reference numbers
	out := res.Render().String()
	if !strings.Contains(out, "0.95/0.97") || !strings.Contains(out, "UBS pcaconf") {
		t.Fatalf("render = %s", out)
	}
}

func TestSampleSizeSweep(t *testing.T) {
	s := tinySetup()
	points, err := SampleSizeSweep(s, []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// more samples should not hurt UBS F1 dramatically (loose sanity)
	if points[1].UBS.F1+0.25 < points[0].UBS.F1 {
		t.Fatalf("F1 collapsed with more samples: %+v", points)
	}
	if RenderSampleSize(points).String() == "" {
		t.Fatal("empty render")
	}
}

func TestThresholdSweepAndQueryBudget(t *testing.T) {
	s := tinySetup()
	res, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	pca, cwa := ThresholdSweep(res)
	if len(pca) != len(cwa) || len(pca) == 0 {
		t.Fatalf("sweep lengths: %d, %d", len(pca), len(cwa))
	}
	// precision should not decrease as τ increases (weakly, allowing
	// small-sample wobble at the top end)
	if pca[0].PRF.Recall < pca[len(pca)-1].PRF.Recall {
		t.Fatalf("recall should shrink with τ: %+v", pca)
	}
	if RenderThresholdSweep(pca, cwa).String() == "" {
		t.Fatal("empty render")
	}

	rows := QueryBudget(s, res)
	if len(rows) != 4 {
		t.Fatalf("budget rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Queries <= 0 || r.QueriesPerHead <= 0 {
			t.Fatalf("bad budget row: %+v", r)
		}
	}
	if RenderQueryBudget(rows).String() == "" {
		t.Fatal("empty render")
	}
}

func TestSameAsCoverageSweep(t *testing.T) {
	s := tinySetup()
	points, err := SameAsCoverage(s, []float64{0.3, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// full coverage should recall at least as much as 30% coverage
	if points[1].UBS.Recall+0.05 < points[0].UBS.Recall {
		t.Fatalf("recall should grow with coverage: %+v", points)
	}
	if RenderCoverage(points).String() == "" {
		t.Fatal("empty render")
	}
}

func TestUBSAblation(t *testing.T) {
	s := tinySetup()
	rows, err := UBSAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	var noUBS, both AblationRow
	for _, r := range rows {
		switch r.Name {
		case "no UBS (τ=0.05 floor)":
			noUBS = r
		case "both (UBS)":
			both = r
		}
	}
	if both.D2Y.Precision < noUBS.D2Y.Precision {
		t.Fatalf("UBS should not lower precision vs no pruning: %+v vs %+v", both, noUBS)
	}
	if RenderAblation(rows).String() == "" {
		t.Fatal("empty render")
	}
}

func TestSnapshotComparison(t *testing.T) {
	s := tinySetup()
	res, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := SnapshotComparison(s, res)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var snapRows, sofyaRows int
	for _, r := range rows {
		if strings.HasPrefix(r.Method, "snapshot") {
			snapRows += r.FactsAccessed
		} else {
			sofyaRows += r.FactsAccessed
		}
	}
	if snapRows == 0 || sofyaRows == 0 {
		t.Fatal("missing access accounting")
	}
	if RenderSnapshot(rows).String() == "" {
		t.Fatal("empty render")
	}
}

func TestWorldSummary(t *testing.T) {
	s := tinySetup()
	out := WorldSummary(s.World).String()
	for _, want := range []string{"yago relations", "sameAs links", "gold pairs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestTable1FullScale pins the paper-world Table 1 exactly (skipped in
// -short runs): per row and direction τ and tp/fp/fn (precision, recall
// and F1 follow from the counts), and for the two UBS runs the heads
// aligned and the queries issued to K and K′. Parallelism 1 and 8 must
// both give these numbers: concurrency moves the wall clock, never a
// score or a query.
func TestTable1FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full world")
	}
	type counts struct{ TP, FP, FN int }
	golden := []struct {
		method   string
		tau      float64
		y2d, d2y counts
	}{
		{"pcaconf", 0.90, counts{67, 41, 6}, counts{96, 27, 40}},      // paper P/F1: 0.55/0.58 (y⊂d), 0.51/0.48 (d⊂y)
		{"cwaconf", 0.60, counts{64, 40, 9}, counts{121, 109, 15}},    // paper P/F1: 0.56/0.59 (y⊂d), 0.55/0.53 (d⊂y)
		{"UBS pcaconf", 0.05, counts{71, 14, 2}, counts{122, 23, 14}}, // paper P/F1: 0.95/0.97 (y⊂d), 0.91/0.82 (d⊂y)
	}
	type ubsRun struct{ Heads, QueriesK, QueriesKPrime int }
	wantY2D := ubsRun{1313, 14676, 23460}
	wantD2Y := ubsRun{92, 25970, 7401}

	w := synth.Generate(synth.DefaultSpec())
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			s := NewSetup(w)
			s.Parallelism = par
			res, err := Table1(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(golden) {
				t.Fatalf("rows = %d, want %d", len(res.Rows), len(golden))
			}
			for i, g := range golden {
				r := res.Rows[i]
				gotY := counts{r.Y2D.TP, r.Y2D.FP, r.Y2D.FN}
				gotD := counts{r.D2Y.TP, r.D2Y.FP, r.D2Y.FN}
				if r.Method != g.method || r.Tau != g.tau || gotY != g.y2d || gotD != g.d2y {
					t.Errorf("row %d: %s τ=%.2f y⊂d %+v d⊂y %+v, want %s τ=%.2f y⊂d %+v d⊂y %+v",
						i, r.Method, r.Tau, gotY, gotD, g.method, g.tau, g.y2d, g.d2y)
				}
			}
			for _, c := range []struct {
				name string
				run  *DirectionRun
				want ubsRun
			}{{"y⊂d", res.UBSY2D, wantY2D}, {"d⊂y", res.UBSD2Y, wantD2Y}} {
				if got := (ubsRun{c.run.HeadsAligned, c.run.QueriesHead, c.run.QueriesBody}); got != c.want {
					t.Errorf("UBS %s: %+v, want %+v", c.name, got, c.want)
				}
			}
			checkTable1Claims(t, res)
		})
	}
}

// checkTable1Claims checks the paper's qualitative Table 1 claims.
func checkTable1Claims(t *testing.T, res *Table1Result) {
	t.Helper()
	var pcaRow, cwaRow, ubsRow Table1Row
	for _, r := range res.Rows {
		switch r.Method {
		case "pcaconf":
			pcaRow = r
		case "cwaconf":
			cwaRow = r
		default:
			ubsRow = r
		}
	}
	// the paper's qualitative claims
	if ubsRow.D2Y.Precision < 0.8 || ubsRow.Y2D.Precision < 0.8 {
		t.Errorf("UBS precision below 0.8: %+v", ubsRow)
	}
	if ubsRow.D2Y.F1 <= pcaRow.D2Y.F1 || ubsRow.Y2D.F1 <= pcaRow.Y2D.F1 {
		t.Errorf("UBS F1 does not beat pcaconf: UBS=%+v pca=%+v", ubsRow, pcaRow)
	}
	if ubsRow.D2Y.F1 <= cwaRow.D2Y.F1 || ubsRow.Y2D.F1 <= cwaRow.Y2D.F1 {
		t.Errorf("UBS F1 does not beat cwaconf: UBS=%+v cwa=%+v", ubsRow, cwaRow)
	}
	if ubsRow.Y2D.F1 < ubsRow.D2Y.F1-0.03 {
		t.Errorf("direction ordering differs from paper: %+v", ubsRow)
	}
	// baselines sit well below UBS precision, as in Table 1
	if pcaRow.Y2D.Precision > ubsRow.Y2D.Precision {
		t.Errorf("pcaconf precision above UBS: %+v vs %+v", pcaRow, ubsRow)
	}
}

// A sharded setup reproduces the unsharded run exactly — alignments,
// scores and all — while the query accounting reflects the per-shard
// fan-out.
func TestRunShardedIdentical(t *testing.T) {
	base := tinySetup()
	want, err := base.Run(DbpToYago, core.UBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharded := tinySetup()
	sharded.Shards = 3
	got, err := sharded.Run(DbpToYago, core.UBSConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.All, want.All) {
		t.Fatal("sharded run's alignments diverge from the unsharded run")
	}
	if got.PRF != want.PRF {
		t.Fatalf("sharded PRF %+v != unsharded %+v", got.PRF, want.PRF)
	}
	if got.QueriesHead <= want.QueriesHead {
		t.Fatalf("sharded head queries %d should exceed unsharded %d (per-shard fan-out)",
			got.QueriesHead, want.QueriesHead)
	}
}
