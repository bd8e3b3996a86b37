// Package experiments contains the benchmark harness that regenerates
// the paper's evaluation (Table 1) and the extension ablations listed in
// DESIGN.md §4 (E2–E7) over the synthetic YAGO/DBpedia world.
package experiments

import (
	"fmt"

	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/eval"
	"sofya/internal/ilp"
	"sofya/internal/kb"
	"sofya/internal/sampling"
	"sofya/internal/shard"
	"sofya/internal/synth"
)

// Direction selects which KB provides rule bodies (DESIGN.md §6).
type Direction uint8

const (
	// DbpToYago mines rules dbp-relation ⇒ yago-relation
	// ("dbpd ⊂ yago"): heads in YAGO, bodies in DBpedia.
	DbpToYago Direction = iota
	// YagoToDbp mines rules yago-relation ⇒ dbp-relation
	// ("yago ⊂ dbpd"): heads in DBpedia, bodies in YAGO.
	YagoToDbp
)

// String names the direction as in the paper's Table 1.
func (d Direction) String() string {
	if d == DbpToYago {
		return "dbpd ⊂ yago"
	}
	return "yago ⊂ dbpd"
}

// DirectionRun is the outcome of aligning every head relation of one
// direction under one configuration.
type DirectionRun struct {
	Direction Direction
	// All collects every validated candidate across heads, accepted or
	// not, as the aligner returned them.
	All []core.Alignment
	// Gold is the direction's gold standard.
	Gold *eval.Gold
	// PRF scores the accepted set at the run's own configuration.
	PRF eval.PRF
	// Query/row accounting from both endpoints (E4).
	QueriesHead, QueriesBody int
	RowsHead, RowsBody       int
	HeadsAligned             int
}

// Setup bundles a world with per-run endpoint seeds.
type Setup struct {
	World *synth.World
	Seed  int64
	// Parallelism overrides Config.Parallelism for every run when > 0.
	// Results are identical at any setting (the endpoints are seeded
	// Locals); only the wall clock changes.
	Parallelism int
	// Shards partitions each KB into this many subject-hash shards
	// behind a federating endpoint group (internal/shard) when > 1.
	// Results are identical at any setting — the federation's merge is
	// byte-identical to the unsharded endpoints — while query counts
	// reflect the per-shard fan-out.
	Shards int
}

// NewSetup wraps a world with the default seed.
func NewSetup(w *synth.World) *Setup { return &Setup{World: w, Seed: 7} }

// goldOf converts generator truth pairs into an eval.Gold.
func goldOf(pairs []synth.TruthPair) *eval.Gold {
	ps := make([][2]string, len(pairs))
	for i, p := range pairs {
		ps[i] = [2]string{p.Body, p.Head}
	}
	return eval.NewGold(ps)
}

// Run aligns all head relations of the direction under cfg.
func (s *Setup) Run(dir Direction, cfg core.Config) (*DirectionRun, error) {
	w := s.World
	if s.Parallelism > 0 {
		cfg.Parallelism = s.Parallelism
	}
	// endpointOf serves a KB unsharded, or behind a subject-hash
	// federation group when the setup requests shards.
	endpointOf := func(base *kb.KB, seed int64) endpoint.Endpoint {
		if s.Shards > 1 {
			return shard.Partitioned(base, s.Shards, seed)
		}
		return endpoint.NewLocal(base, seed)
	}
	var (
		k, kp endpoint.Endpoint
		heads []string
		links sampling.LinkView
		gold  *eval.Gold
	)
	switch dir {
	case DbpToYago:
		k = endpointOf(w.Yago, s.Seed)
		kp = endpointOf(w.Dbp, s.Seed+1)
		links = sampling.LinkView{Links: w.Links, KIsA: true}
		heads = w.Report.YagoRelations
		gold = goldOf(w.Truth.DbpToYago)
	default:
		k = endpointOf(w.Dbp, s.Seed+2)
		kp = endpointOf(w.Yago, s.Seed+3)
		links = sampling.LinkView{Links: w.Links, KIsA: false}
		heads = w.Report.DbpRelations
		gold = goldOf(w.Truth.YagoToDbp)
	}
	aligner := core.New(k, kp, links, cfg)
	run := &DirectionRun{Direction: dir, Gold: gold}
	results, err := aligner.AlignRelations(heads)
	if err != nil {
		return nil, fmt.Errorf("experiments: aligning (%s): %w", dir, err)
	}
	for _, als := range results {
		run.All = append(run.All, als...)
		run.HeadsAligned++
	}
	run.PRF = eval.Score(run.All, gold)
	if sr, ok := k.(endpoint.StatsReporter); ok {
		run.QueriesHead, run.RowsHead = sr.Stats().Queries, sr.Stats().Rows
	}
	if sr, ok := kp.(endpoint.StatsReporter); ok {
		run.QueriesBody, run.RowsBody = sr.Stats().Queries, sr.Stats().Rows
	}
	return run, nil
}

// Table1Row is one method row of the Table 1 reproduction, or one
// (measure, τ) point of its baseline grid.
type Table1Row struct {
	Method string
	Tau    float64
	// Y2D and D2Y are the per-direction scores (yago ⊂ dbpd first, as
	// in the paper's column order).
	Y2D, D2Y eval.PRF
}

// Table1Result is the full reproduction of the paper's Table 1.
type Table1Result struct {
	Rows []Table1Row
	// Grid holds every baseline run: pcaconf at each τ of
	// eval.DefaultTaus, ascending, then cwaconf at each (E3).
	Grid []Table1Row
	// BaselineY2D / BaselineD2Y keep the first grid point's runs. The
	// baseline's probes do not depend on the measure or τ, so E4 reads
	// its query stats from them.
	BaselineY2D, BaselineD2Y *DirectionRun
	// UBSY2D / UBSD2Y keep the UBS runs (E4 reads their query stats).
	UBSY2D, UBSD2Y *DirectionRun
}

// runBoth runs cfg in both directions.
func (s *Setup) runBoth(cfg core.Config) (y2d, d2y *DirectionRun, err error) {
	if y2d, err = s.Run(YagoToDbp, cfg); err != nil {
		return nil, nil, err
	}
	d2y, err = s.Run(DbpToYago, cfg)
	return y2d, d2y, err
}

// baselineConfig is a Table 1 baseline: DefaultConfig under measure m at
// threshold tau, without the equivalence check.
func baselineConfig(m ilp.Measure, tau float64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Measure, cfg.Threshold, cfg.CheckEquivalence = m, tau, false
	return cfg
}

// Table1 reproduces the paper's Table 1. Each baseline row runs the
// aligner at every τ of eval.DefaultTaus in both directions and keeps
// the τ with the best mean F1 — the paper's rule, "the thresholds that
// led to the highest average F1 score for both ways implications" — and
// the lowest such τ on a tie. The UBS row runs UBSConfig as it is.
func Table1(s *Setup) (*Table1Result, error) {
	res := &Table1Result{}
	for _, m := range []ilp.Measure{ilp.PCA, ilp.CWA} {
		bestAvg := -1.0
		var best Table1Row
		for _, tau := range eval.DefaultTaus() {
			y2d, d2y, err := s.runBoth(baselineConfig(m, tau))
			if err != nil {
				return nil, err
			}
			if res.BaselineY2D == nil {
				res.BaselineY2D, res.BaselineD2Y = y2d, d2y
			}
			row := Table1Row{Method: m.String(), Tau: tau, Y2D: y2d.PRF, D2Y: d2y.PRF}
			res.Grid = append(res.Grid, row)
			if avg := (row.Y2D.F1 + row.D2Y.F1) / 2; avg > bestAvg {
				bestAvg, best = avg, row
			}
		}
		res.Rows = append(res.Rows, best)
	}

	ubs := core.UBSConfig()
	uy2d, ud2y, err := s.runBoth(ubs)
	if err != nil {
		return nil, err
	}
	res.UBSY2D, res.UBSD2Y = uy2d, ud2y
	res.Rows = append(res.Rows, Table1Row{
		Method: "UBS pcaconf",
		Tau:    ubs.Threshold,
		Y2D:    uy2d.PRF,
		D2Y:    ud2y.PRF,
	})
	return res, nil
}

// Render formats the Table 1 reproduction beside the paper's numbers.
func (r *Table1Result) Render() *eval.Table {
	paper := map[string][4]float64{
		"pcaconf":     {0.55, 0.58, 0.51, 0.48},
		"cwaconf":     {0.56, 0.59, 0.55, 0.53},
		"UBS pcaconf": {0.95, 0.97, 0.91, 0.82},
	}
	t := &eval.Table{Header: []string{
		"method", "tau",
		"yago⊂dbpd P", "yago⊂dbpd F1", "dbpd⊂yago P", "dbpd⊂yago F1",
		"paper P/F1 (y⊂d)", "paper P/F1 (d⊂y)",
	}}
	for _, row := range r.Rows {
		p := paper[row.Method]
		t.Add(row.Method, row.Tau,
			row.Y2D.Precision, row.Y2D.F1, row.D2Y.Precision, row.D2Y.F1,
			fmt.Sprintf("%.2f/%.2f", p[0], p[1]),
			fmt.Sprintf("%.2f/%.2f", p[2], p[3]))
	}
	return t
}
