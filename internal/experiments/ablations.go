package experiments

import (
	"fmt"

	"sofya/internal/core"
	"sofya/internal/eval"
	"sofya/internal/paris"
	"sofya/internal/sampling"
	"sofya/internal/synth"
)

// E2 — SampleSizePoint is one entry of the sample-size sweep.
type SampleSizePoint struct {
	N        int
	Baseline eval.PRF // pcaconf at DefaultConfig's τ 0.3
	UBS      eval.PRF
}

// SampleSizeSweep (experiment E2) measures how sample size trades
// against quality in the dbpd ⊂ yago direction.
func SampleSizeSweep(s *Setup, sizes []int) ([]SampleSizePoint, error) {
	out := make([]SampleSizePoint, 0, len(sizes))
	for _, n := range sizes {
		base := core.DefaultConfig()
		base.SampleSize = n
		ubs := core.UBSConfig()
		ubs.SampleSize = n
		baseRun, err := s.Run(DbpToYago, base)
		if err != nil {
			return nil, err
		}
		ubsRun, err := s.Run(DbpToYago, ubs)
		if err != nil {
			return nil, err
		}
		out = append(out, SampleSizePoint{N: n, Baseline: baseRun.PRF, UBS: ubsRun.PRF})
	}
	return out, nil
}

// RenderSampleSize formats E2.
func RenderSampleSize(points []SampleSizePoint) *eval.Table {
	t := &eval.Table{Header: []string{"n", "pcaconf P", "pcaconf R", "pcaconf F1", "UBS P", "UBS R", "UBS F1"}}
	for _, p := range points {
		t.Add(p.N, p.Baseline.Precision, p.Baseline.Recall, p.Baseline.F1,
			p.UBS.Precision, p.UBS.Recall, p.UBS.F1)
	}
	return t
}

// RenderThresholdSweep formats experiment E3: Table 1's baseline grid
// in the dbpd ⊂ yago direction, both measures side by side at each τ.
func RenderThresholdSweep(r *Table1Result) *eval.Table {
	t := &eval.Table{Header: []string{"tau", "pca P", "pca R", "pca F1", "cwa P", "cwa R", "cwa F1"}}
	n := len(r.Grid) / 2
	for i, pca := range r.Grid[:n] {
		cwa := r.Grid[n+i].D2Y
		t.Add(pca.Tau, pca.D2Y.Precision, pca.D2Y.Recall, pca.D2Y.F1, cwa.Precision, cwa.Recall, cwa.F1)
	}
	return t
}

// QueryBudgetRow is one line of the E4 access-cost accounting.
type QueryBudgetRow struct {
	Method    string
	Direction Direction
	// Queries and Rows are endpoint totals across the whole direction;
	// PerHead divides by the number of head relations aligned.
	Queries, Rows    int
	QueriesPerHead   float64
	SnapshotFacts    int // what a full download would have read
	AccessedFraction float64
}

// QueryBudget (experiment E4) extracts the access accounting from the
// Table-1 runs: SOFYA's "few queries, no download" claim quantified.
func QueryBudget(s *Setup, r *Table1Result) []QueryBudgetRow {
	world := s.World
	snapshot := world.Yago.Size() + world.Dbp.Size()
	mk := func(method string, run *DirectionRun) QueryBudgetRow {
		q := run.QueriesHead + run.QueriesBody
		rows := run.RowsHead + run.RowsBody
		return QueryBudgetRow{
			Method:           method,
			Direction:        run.Direction,
			Queries:          q,
			Rows:             rows,
			QueriesPerHead:   float64(q) / float64(run.HeadsAligned),
			SnapshotFacts:    snapshot,
			AccessedFraction: float64(rows) / float64(snapshot),
		}
	}
	return []QueryBudgetRow{
		mk("baseline", r.BaselineD2Y),
		mk("baseline", r.BaselineY2D),
		mk("UBS", r.UBSD2Y),
		mk("UBS", r.UBSY2D),
	}
}

// RenderQueryBudget formats E4.
func RenderQueryBudget(rows []QueryBudgetRow) *eval.Table {
	t := &eval.Table{Header: []string{"method", "direction", "queries", "queries/head", "rows fetched", "snapshot facts", "rows/snapshot"}}
	for _, r := range rows {
		t.Add(r.Method, r.Direction.String(), r.Queries,
			fmt.Sprintf("%.1f", r.QueriesPerHead), r.Rows, r.SnapshotFacts,
			fmt.Sprintf("%.2fx", r.AccessedFraction))
	}
	return t
}

// CoveragePoint is one entry of the sameAs-coverage sweep.
type CoveragePoint struct {
	Coverage float64
	UBS      eval.PRF
}

// SameAsCoverage (experiment E5) degrades the link set and reruns UBS in
// the dbpd ⊂ yago direction: SOFYA must keep working when most sameAs
// links are missing, only losing recall gracefully.
func SameAsCoverage(s *Setup, fractions []float64) ([]CoveragePoint, error) {
	out := make([]CoveragePoint, 0, len(fractions))
	for _, frac := range fractions {
		w := *s.World
		w.Links = s.World.Links.Subset(frac, 99)
		sub := *s
		sub.World = &w
		run, err := sub.Run(DbpToYago, core.UBSConfig())
		if err != nil {
			return nil, err
		}
		out = append(out, CoveragePoint{Coverage: frac, UBS: run.PRF})
	}
	return out, nil
}

// RenderCoverage formats E5.
func RenderCoverage(points []CoveragePoint) *eval.Table {
	t := &eval.Table{Header: []string{"sameAs kept", "UBS P", "UBS R", "UBS F1"}}
	for _, p := range points {
		t.Add(p.Coverage, p.UBS.Precision, p.UBS.Recall, p.UBS.F1)
	}
	return t
}

// AblationRow is one UBS-strategy combination (experiment E6).
type AblationRow struct {
	Name     string
	D2Y, Y2D eval.PRF
}

// UBSAblation (experiment E6) toggles the two contradiction-search
// strategies independently, plus the one-contradiction variant the
// paper describes.
func UBSAblation(s *Setup) ([]AblationRow, error) {
	mk := func(name string, mod func(*core.Config)) (AblationRow, error) {
		cfg := core.UBSConfig()
		mod(&cfg)
		y2d, d2y, err := s.runBoth(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{Name: name, D2Y: d2y.PRF, Y2D: y2d.PRF}, nil
	}
	specs := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"no UBS (τ=0.05 floor)", func(c *core.Config) { c.UseUBS = false }},
		{"body siblings only", func(c *core.Config) { c.UBSHeadSiblings = false }},
		{"head siblings only", func(c *core.Config) { c.UBSBodySiblings = false }},
		{"both (UBS)", func(c *core.Config) {}},
		{"both, 1 contradiction", func(c *core.Config) { c.MinContradictions = 1; c.UBSContradictionRatio = 0 }},
	}
	out := make([]AblationRow, 0, len(specs))
	for _, sp := range specs {
		row, err := mk(sp.name, sp.mod)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderAblation formats E6.
func RenderAblation(rows []AblationRow) *eval.Table {
	t := &eval.Table{Header: []string{"configuration", "d⊂y P", "d⊂y R", "d⊂y F1", "y⊂d P", "y⊂d R", "y⊂d F1"}}
	for _, r := range rows {
		t.Add(r.Name, r.D2Y.Precision, r.D2Y.Recall, r.D2Y.F1,
			r.Y2D.Precision, r.Y2D.Recall, r.Y2D.F1)
	}
	return t
}

// SnapshotRow contrasts snapshot alignment against SOFYA (experiment E7).
type SnapshotRow struct {
	Method        string
	Direction     Direction
	PRF           eval.PRF
	FactsAccessed int
}

// SnapshotComparison (experiment E7) runs the PARIS-style full-snapshot
// baseline in both directions and pairs it with SOFYA's UBS results.
func SnapshotComparison(s *Setup, r *Table1Result) []SnapshotRow {
	w := s.World
	cfg := paris.DefaultConfig()

	d2y := paris.Align(w.Yago, w.Dbp, sampling.LinkView{Links: w.Links, KIsA: true}, cfg)
	y2d := paris.Align(w.Dbp, w.Yago, sampling.LinkView{Links: w.Links, KIsA: false}, cfg)

	goldD := goldOf(w.Truth.DbpToYago)
	goldY := goldOf(w.Truth.YagoToDbp)
	return []SnapshotRow{
		{"snapshot (PARIS-style)", DbpToYago, eval.Score(d2y.Alignments, goldD), d2y.FactsScanned},
		{"snapshot (PARIS-style)", YagoToDbp, eval.Score(y2d.Alignments, goldY), y2d.FactsScanned},
		{"SOFYA UBS", DbpToYago, r.UBSD2Y.PRF, r.UBSD2Y.RowsHead + r.UBSD2Y.RowsBody},
		{"SOFYA UBS", YagoToDbp, r.UBSY2D.PRF, r.UBSY2D.RowsHead + r.UBSY2D.RowsBody},
	}
}

// RenderSnapshot formats E7.
func RenderSnapshot(rows []SnapshotRow) *eval.Table {
	t := &eval.Table{Header: []string{"method", "direction", "P", "R", "F1", "facts/rows accessed"}}
	for _, r := range rows {
		t.Add(r.Method, r.Direction.String(), r.PRF.Precision, r.PRF.Recall, r.PRF.F1, r.FactsAccessed)
	}
	return t
}

// WorldSummary renders the generated substrate's inventory, for the
// experiment preamble.
func WorldSummary(w *synth.World) *eval.Table {
	t := &eval.Table{Header: []string{"quantity", "value"}}
	t.Add("yago relations", len(w.Report.YagoRelations))
	t.Add("dbpedia relations", len(w.Report.DbpRelations))
	t.Add("yago facts", w.Report.YagoFacts)
	t.Add("dbpedia facts", w.Report.DbpFacts)
	t.Add("relation families", w.Report.Families)
	t.Add("confounder families", w.Report.ConfounderFamilies)
	t.Add("specialized families", w.Report.SpecializedFamilies)
	t.Add("literal families", w.Report.LiteralFamilies)
	t.Add("variant relations", w.Report.VariantRelations)
	t.Add("noise relations", w.Report.NoiseRelations)
	t.Add("sameAs links", w.Report.SameAsLinks)
	t.Add("gold pairs dbpd⊂yago", len(w.Truth.DbpToYago))
	t.Add("gold pairs yago⊂dbpd", len(w.Truth.YagoToDbp))
	return t
}
