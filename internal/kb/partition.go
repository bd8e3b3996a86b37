package kb

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"sofya/internal/rdf"
)

// partition.go splits a KB into subject-hash shards — the data side of
// the scale-out layer (internal/shard federates the shards back into
// one endpoint).
//
// The partitioning invariant: every fact lands in the shard of its
// subject, so any query whose patterns are all anchored on one subject
// evaluates completely inside a single shard, and the union of shard
// results over all subjects is exactly the whole-KB result. Shard-local
// enumeration orders are restrictions of the whole-KB orders: subjects
// keep their term order and each subject keeps its per-predicate object
// insertion order, which is what lets a subject-ordered merge of shard
// streams reconstruct the unsharded engine's enumeration byte for byte.

// SubjectShard returns the shard index of a subject term under a k-way
// subject-hash partition. The hash is the FNV-64a of the term's
// canonical rendering, so the placement is deterministic across
// processes and independent of interning order.
func SubjectShard(t rdf.Term, k int) int {
	h := fnv.New64a()
	io.WriteString(h, t.String())
	return int(h.Sum64() % uint64(k))
}

// PredStats is the per-predicate cardinality triple the query planner
// consumes (fact count, distinct subjects, distinct objects).
type PredStats struct {
	Facts, Subjects, Objects int
}

// SetPlanStats installs partition-wide planner statistics: the join
// planner reads these instead of the KB's own counts (PlanFactsOf and
// friends). A shard carrying the source KB's global statistics chooses
// exactly the join orders the unsharded engine would, so shard-local
// enumeration — and with it RAND() pairing — interleaves back into the
// whole-KB order. Terms unseen by the shard are interned, in term
// order — the ids they get, and with them the snapshot's bytes, must
// not depend on map iteration.
func (k *KB) SetPlanStats(stats map[rdf.Term]PredStats) {
	preds := make([]rdf.Term, 0, len(stats))
	for t := range stats {
		preds = append(preds, t)
	}
	slices.SortFunc(preds, rdf.Term.Compare)
	k.planStats = make(map[TermID]PredStats, len(stats))
	for _, t := range preds {
		k.planStats[k.Intern(t)] = stats[t]
	}
}

// PlanStats extracts the KB's own per-predicate statistics in the form
// SetPlanStats consumes — the whole-KB truth a partitioner distributes
// to its shards.
func (k *KB) PlanStats() map[rdf.Term]PredStats {
	stats := make(map[rdf.Term]PredStats)
	for _, p := range k.Relations() {
		stats[k.Term(p)] = PredStats{
			Facts:    k.NumFactsOf(p),
			Subjects: k.NumSubjectsOf(p),
			Objects:  k.NumObjectsOf(p),
		}
	}
	return stats
}

// PlanFactsOf returns the fact count of p as the query planner should
// see it: the partition-wide override when installed, the KB's own
// count otherwise.
func (k *KB) PlanFactsOf(p TermID) int {
	if s, ok := k.planStats[p]; ok {
		return s.Facts
	}
	return k.NumFactsOf(p)
}

// PlanSubjectsOf is the planner's view of p's distinct subject count.
func (k *KB) PlanSubjectsOf(p TermID) int {
	if s, ok := k.planStats[p]; ok {
		return s.Subjects
	}
	return k.NumSubjectsOf(p)
}

// PlanObjectsOf is the planner's view of p's distinct object count.
func (k *KB) PlanObjectsOf(p TermID) int {
	if s, ok := k.planStats[p]; ok {
		return s.Objects
	}
	return k.NumObjectsOf(p)
}

// Partition splits src into n shards by subject hash. Shard i is named
// "<src>/shard-<i>-of-<n>". Every shard carries src's global planner
// statistics (SetPlanStats), so queries plan identically on a shard and
// on the whole KB.
func Partition(src *KB, n int) []*KB {
	if n <= 0 {
		panic(fmt.Sprintf("kb: Partition needs a positive shard count, got %d", n))
	}
	shards := make([]*KB, n)
	for i := range shards {
		shards[i] = New(fmt.Sprintf("%s/shard-%d-of-%d", src.Name(), i, n))
	}
	// Triples() enumerates in (subject term, predicate term, object
	// insertion) order; re-adding preserves each (s,p) object list's
	// insertion order inside its shard.
	for _, t := range src.Triples() {
		shards[SubjectShard(t.S, n)].Add(t)
	}
	stats := src.PlanStats()
	for _, sh := range shards {
		sh.SetPlanStats(stats)
	}
	return shards
}
