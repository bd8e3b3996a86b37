// Candidate-generation experiments (E8): how the internal/candidates
// index scales against the exact all-pairs scorer as the target
// inventory grows, and the end-to-end differential between pruned and
// exact alignment. Unlike the Table 1 experiments these run over
// synth.ScaleSpec worlds, whose inventories reach the sizes where
// all-pairs candidate generation stops being viable.
package experiments

import (
	"context"
	"fmt"
	"time"

	"sofya/internal/candidates"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/eval"
	"sofya/internal/sampling"
	"sofya/internal/synth"
)

// CandidatePoint is one inventory size of the asymptotics sweep: index
// build cost, per-source probe latency for the pruned and the exact
// scorer, and the candidate recall of the pruned probe against the
// exact top-k.
type CandidatePoint struct {
	// Relations is the indexed target inventory size; Sources is how
	// many source relations were probed.
	Relations, Sources int
	// TopK is the probed candidate count.
	TopK int
	// Build is the one-time index construction cost (name postings plus
	// one signature-sampling query per target relation).
	Build time.Duration
	// ProbePer and ExactPer are the mean per-source latencies of the
	// pruned top-k probe and the exact all-pairs scorer. Both include
	// the identical source-side sampling query, so their ratio isolates
	// the scoring work.
	ProbePer, ExactPer time.Duration
	// GenSpeedup is ExactPer / ProbePer.
	GenSpeedup float64
	// SetRecall and MassRecall compare the pruned top-k candidate set
	// with the exact top-k: the fraction of exact entries retained, and
	// the fraction of exact score mass retained.
	SetRecall, MassRecall float64
}

// CandidateAsymptotics measures candidate generation at each inventory
// size: it generates a synth.ScaleSpec world with n target relations,
// builds the index, then probes every source relation with both the
// pruned and the exact scorer. The exact scorer's per-source cost grows
// linearly with n while the pruned probe touches only posting lists and
// band buckets, so GenSpeedup is the sweep's headline column.
func CandidateAsymptotics(sizes []int, topk int) ([]CandidatePoint, error) {
	points := make([]CandidatePoint, 0, len(sizes))
	for _, n := range sizes {
		w := synth.Generate(synth.ScaleSpec(n))
		source := endpoint.NewLocal(w.Yago, 7)
		target := endpoint.NewLocal(w.Dbp, 11)
		links := sampling.LinkView{Links: w.Links, KIsA: true}

		rels, err := candidates.Relations(target)
		if err != nil {
			return nil, fmt.Errorf("experiments: inventory at n=%d: %w", n, err)
		}
		start := time.Now()
		ix, err := candidates.Build(target, rels, links, candidates.Options{})
		if err != nil {
			return nil, fmt.Errorf("experiments: index build at n=%d: %w", n, err)
		}
		build := time.Since(start)
		pr, err := candidates.NewProber(ix, source)
		if err != nil {
			return nil, fmt.Errorf("experiments: prober at n=%d: %w", n, err)
		}

		pt := CandidatePoint{Relations: ix.Len(), TopK: topk, Build: build}
		var probeTotal, exactTotal time.Duration
		var set, mass float64
		for _, r := range w.Report.YagoRelations {
			start = time.Now()
			approx, err := pr.TopK(r, topk)
			if err != nil {
				return nil, fmt.Errorf("experiments: probe at n=%d: %w", n, err)
			}
			probeTotal += time.Since(start)
			start = time.Now()
			exact, err := pr.ExactTopK(r, topk)
			if err != nil {
				return nil, fmt.Errorf("experiments: exact probe at n=%d: %w", n, err)
			}
			exactTotal += time.Since(start)
			set += candidates.Recall(approx, exact)
			mass += candidates.ScoreRecall(approx, exact)
			pt.Sources++
		}
		div := time.Duration(pt.Sources)
		pt.ProbePer, pt.ExactPer = probeTotal/div, exactTotal/div
		if pt.ProbePer > 0 {
			pt.GenSpeedup = float64(pt.ExactPer) / float64(pt.ProbePer)
		}
		pt.SetRecall = set / float64(pt.Sources)
		pt.MassRecall = mass / float64(pt.Sources)
		points = append(points, pt)
	}
	return points, nil
}

// RenderAsymptotics formats the sweep.
func RenderAsymptotics(points []CandidatePoint) *eval.Table {
	t := &eval.Table{Header: []string{
		"target rels", "sources", "k", "index build",
		"probe/src", "exact/src", "gen speedup",
		"set recall", "mass recall",
	}}
	for _, p := range points {
		t.Add(p.Relations, p.Sources, p.TopK, p.Build.Round(time.Millisecond).String(),
			p.ProbePer.Round(time.Microsecond).String(),
			p.ExactPer.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1fx", p.GenSpeedup),
			p.SetRecall, p.MassRecall)
	}
	return t
}

// DifferentialResult compares two complete alignment arms over the same
// world: the pruned arm generates candidates with the index's top-k
// probe, the exact arm with the all-pairs scorer, and both then run the
// identical alignment pipeline inside their candidate universe
// (Aligner.AlignRelationWithin). Both arms share one index build — the
// exact scorer needs the sampled signature sets just the same — so the
// timing difference isolates what pruning buys per aligned relation.
type DifferentialResult struct {
	Relations, Sources, TopK int
	// Build is the shared index construction time.
	Build time.Duration
	// PrunedGen / ExactGen are the total candidate-generation times of
	// each arm; PrunedAlign / ExactAlign the total alignment times
	// inside the respective universes.
	PrunedGen, ExactGen     time.Duration
	PrunedAlign, ExactAlign time.Duration
	// CandidateSetRecall / CandidateMassRecall average the per-source
	// recall of the pruned candidate set against the exact top-k.
	CandidateSetRecall, CandidateMassRecall float64
	// ExactAccepted / PrunedAccepted count accepted alignments per arm;
	// AlignmentRecall is the fraction of the exact arm's accepted
	// (body, head) rules the pruned arm also accepts — the end-to-end
	// recall the candidate index must not lose.
	ExactAccepted, PrunedAccepted int
	AlignmentRecall               float64
}

// PerSourceSpeedup is the steady-state speedup per aligned relation:
// (exact generation + alignment) over (pruned generation + alignment),
// excluding the shared one-time index build.
func (r *DifferentialResult) PerSourceSpeedup() float64 {
	pruned := r.PrunedGen + r.PrunedAlign
	if pruned == 0 {
		return 0
	}
	return float64(r.ExactGen+r.ExactAlign) / float64(pruned)
}

// BreakEvenSources is how many aligned relations amortize the index
// build: past this count the pruned arm's total wall time (build
// included) is below the exact arm's. 0 means the pruned arm never
// falls behind even with the build charged.
func (r *DifferentialResult) BreakEvenSources() int {
	if r.Sources == 0 {
		return 0
	}
	perExact := float64(r.ExactGen+r.ExactAlign) / float64(r.Sources)
	perPruned := float64(r.PrunedGen+r.PrunedAlign) / float64(r.Sources)
	if perExact <= perPruned {
		return -1 // pruning never pays off at this inventory size
	}
	return int(float64(r.Build)/(perExact-perPruned)) + 1
}

// CandidateDifferential runs both arms over the setup's world in the
// DbpToYago direction (yago heads against the dbp inventory), aligning
// up to maxSources head relations (<= 0 aligns all) under cfg with
// candidate universes of size topk.
func CandidateDifferential(s *Setup, cfg core.Config, topk, maxSources int) (*DifferentialResult, error) {
	w := s.World
	cfg.CandidateTopK = 0 // universes are injected per arm below
	if s.Parallelism > 0 {
		cfg.Parallelism = s.Parallelism
	}
	links := sampling.LinkView{Links: w.Links, KIsA: true}

	rels, err := candidates.Relations(endpoint.NewLocal(w.Dbp, s.Seed+1))
	if err != nil {
		return nil, fmt.Errorf("experiments: differential inventory: %w", err)
	}
	start := time.Now()
	ix, err := candidates.Build(endpoint.NewLocal(w.Dbp, s.Seed+1), rels, links, candidates.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: differential index: %w", err)
	}
	res := &DifferentialResult{Relations: ix.Len(), TopK: topk, Build: time.Since(start)}
	pr, err := candidates.NewProber(ix, endpoint.NewLocal(w.Yago, s.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: differential prober: %w", err)
	}

	// Each arm aligns through its own endpoints so neither perturbs the
	// other; seeded Locals make each arm deterministic on its own.
	alignerOf := func() *core.Aligner {
		return core.New(endpoint.NewLocal(w.Yago, s.Seed), endpoint.NewLocal(w.Dbp, s.Seed+1), links, cfg)
	}
	prunedAligner, exactAligner := alignerOf(), alignerOf()

	heads := w.Report.YagoRelations
	if maxSources > 0 && len(heads) > maxSources {
		heads = heads[:maxSources]
	}
	universe := func(cands []candidates.Candidate) map[string]bool {
		m := make(map[string]bool, len(cands))
		for _, c := range cands {
			m[c.Rel] = true
		}
		return m
	}
	type rule struct{ body, head string }
	exactRules := map[rule]bool{}
	prunedRules := map[rule]bool{}
	for _, r := range heads {
		start = time.Now()
		approx, err := pr.TopK(r, topk)
		if err != nil {
			return nil, fmt.Errorf("experiments: differential probe <%s>: %w", r, err)
		}
		res.PrunedGen += time.Since(start)
		start = time.Now()
		exact, err := pr.ExactTopK(r, topk)
		if err != nil {
			return nil, fmt.Errorf("experiments: differential exact probe <%s>: %w", r, err)
		}
		res.ExactGen += time.Since(start)
		res.CandidateSetRecall += candidates.Recall(approx, exact)
		res.CandidateMassRecall += candidates.ScoreRecall(approx, exact)

		start = time.Now()
		prunedAls, err := prunedAligner.AlignRelationWithin(context.Background(), r, universe(approx))
		if err != nil {
			return nil, fmt.Errorf("experiments: pruned align <%s>: %w", r, err)
		}
		res.PrunedAlign += time.Since(start)
		start = time.Now()
		exactAls, err := exactAligner.AlignRelationWithin(context.Background(), r, universe(exact))
		if err != nil {
			return nil, fmt.Errorf("experiments: exact align <%s>: %w", r, err)
		}
		res.ExactAlign += time.Since(start)
		for _, al := range prunedAls {
			if al.Accepted {
				prunedRules[rule{al.Rule.Body, al.Rule.Head}] = true
			}
		}
		for _, al := range exactAls {
			if al.Accepted {
				exactRules[rule{al.Rule.Body, al.Rule.Head}] = true
			}
		}
		res.Sources++
	}
	res.CandidateSetRecall /= float64(res.Sources)
	res.CandidateMassRecall /= float64(res.Sources)
	res.ExactAccepted, res.PrunedAccepted = len(exactRules), len(prunedRules)
	hit := 0
	for r := range exactRules {
		if prunedRules[r] {
			hit++
		}
	}
	if len(exactRules) == 0 {
		res.AlignmentRecall = 1
	} else {
		res.AlignmentRecall = float64(hit) / float64(len(exactRules))
	}
	return res, nil
}

// RenderDifferential formats the differential result.
func RenderDifferential(r *DifferentialResult) *eval.Table {
	t := &eval.Table{Header: []string{
		"arm", "gen total", "align total", "per src",
		"accepted", "align recall",
	}}
	per := func(d time.Duration) string {
		return (d / time.Duration(r.Sources)).Round(time.Microsecond).String()
	}
	t.Add("exact all-pairs", r.ExactGen.Round(time.Millisecond).String(),
		r.ExactAlign.Round(time.Millisecond).String(),
		per(r.ExactGen+r.ExactAlign), r.ExactAccepted, 1.0)
	t.Add(fmt.Sprintf("pruned top-%d", r.TopK), r.PrunedGen.Round(time.Millisecond).String(),
		r.PrunedAlign.Round(time.Millisecond).String(),
		per(r.PrunedGen+r.PrunedAlign), r.PrunedAccepted, r.AlignmentRecall)
	t.Add(fmt.Sprintf("speedup %.1fx", r.PerSourceSpeedup()),
		fmt.Sprintf("build %s", r.Build.Round(time.Millisecond)),
		fmt.Sprintf("break-even %d srcs", r.BreakEvenSources()),
		"", "", "")
	return t
}
