// Package harness builds the benchmark's fixtures, runs its four
// workloads and turns what it observes into the metrics declared in
// BENCHMARK.json. It calls the program only through the public functions
// of sofya/internal/...; everything it measures, it measures from
// outside.
package harness

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sofya/internal/candidates"
	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sampling"
	"sofya/internal/synth"
)

// Spec fixes every input the workloads run on. World seeds live in the
// synth specs, so the program only ever sees generated inputs; the run
// seed (Options.Seed) drives op order only.
type Spec struct {
	Name string
	// Paper is the world of the on-the-fly and serving workloads, Scale
	// that of the batch workload.
	Paper, Scale synth.Spec
	// Shards is the federation width of onthefly_http3.
	Shards int
	// YagoStride and DbpStride pick the on-the-fly head set: every n-th
	// relation of each sorted inventory. A full pass over all 1405 paper
	// heads takes ~12 s over HTTP, which does not fit a run; the stride
	// sample keeps both directions and the heavy/trivial mix.
	YagoStride, DbpStride int
	// ChunkSize and TopK shape batch_topk_scale.
	ChunkSize, TopK int
	// Bindings is the size of serve_http_closed's probe set.
	Bindings int
	// SetupReps is how many times an untraced run sets its stack up (and
	// tears it down); setup_s is the median.
	SetupReps int
}

// FullSpec is the benchmark proper: the paper-scale world (92 YAGO /
// 1313 DBpedia relations) and a 50 000-relation candidate-pruning world.
func FullSpec() Spec {
	return Spec{
		Name: "full", Paper: synth.DefaultSpec(), Scale: synth.ScaleSpec(50000),
		Shards: 3, YagoStride: 5, DbpStride: 10, ChunkSize: 25, TopK: 16, Bindings: 4096, SetupReps: 5,
	}
}

// TinySpec is the smoke-test size: every workload in about a second.
func TinySpec() Spec {
	return Spec{
		Name: "tiny", Paper: synth.TinySpec(), Scale: synth.ScaleSpec(200),
		Shards: 3, YagoStride: 1, DbpStride: 1, ChunkSize: 25, TopK: 16, Bindings: 256, SetupReps: 2,
	}
}

// SpecByName resolves the -spec flag.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "full":
		return FullSpec(), nil
	case "tiny":
		return TinySpec(), nil
	}
	return Spec{}, fmt.Errorf("unknown spec %q (want full or tiny)", name)
}

// fixtureVersion invalidates cached fixtures when their layout changes.
const fixtureVersion = 2

// Endpoint seeds. RAND() streams derive from seed ⊕ query text, so these
// are part of the inputs.
const (
	seedYago int64 = 7
	seedDbp  int64 = 8
)

// Hash identifies the fixture set a spec produces.
func (s Spec) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d %+v %+v shards=%d seeds=%d,%d", fixtureVersion, s.Paper, s.Scale, s.Shards, seedYago, seedDbp)
	return fmt.Sprintf("%s-%016x", s.Name, h.Sum64())
}

// Fixtures locates a built fixture set.
type Fixtures struct {
	Dir string
	// BuildS is how long the set took to build when it was built
	// (synth.Generate + snapshot and sidecar writes), untimed by any
	// end-to-end metric.
	BuildS float64
}

func (f Fixtures) paperDir() string { return filepath.Join(f.Dir, "paper") }
func (f Fixtures) scaleDir() string { return filepath.Join(f.Dir, "scale") }

// sidecar is the candidate index over the scale world's DBpedia side.
func (f Fixtures) sidecar() string {
	return filepath.Join(f.scaleDir(), "dbpedia-candidates.idx")
}

// shardSnapshots lists the per-shard snapshot files of one paper-world KB.
func (f Fixtures) shardSnapshots(kbName string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = filepath.Join(f.paperDir(), fmt.Sprintf("%s-shard-%d-of-%d.snap", kbName, i, n))
	}
	return out
}

type fixtureMeta struct {
	BuildS float64 `json:"build_s"`
}

const metaFile = "meta.json"

// EnsureFixtures returns the fixture set for spec under workdir,
// building it first if absent. Builds are deterministic (byte-identical
// files for equal specs) and land by rename, so a parent/change pair
// sharing a workdir reads identical inputs and an interrupted build
// leaves nothing behind that looks complete.
func EnsureFixtures(workdir string, spec Spec) (Fixtures, error) {
	dir := filepath.Join(workdir, spec.Hash())
	if raw, err := os.ReadFile(filepath.Join(dir, metaFile)); err == nil {
		var m fixtureMeta
		if err := json.Unmarshal(raw, &m); err == nil {
			return Fixtures{Dir: dir, BuildS: m.BuildS}, nil
		}
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return Fixtures{}, err
	}
	tmp, err := os.MkdirTemp(workdir, "building-")
	if err != nil {
		return Fixtures{}, err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	if err := BuildFixtures(tmp, spec); err != nil {
		return Fixtures{}, fmt.Errorf("building fixtures: %w", err)
	}
	m := fixtureMeta{BuildS: time.Since(t0).Seconds()}
	raw, _ := json.Marshal(m)
	if err := os.WriteFile(filepath.Join(tmp, metaFile), raw, 0o644); err != nil {
		return Fixtures{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return Fixtures{}, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return Fixtures{}, err
	}
	return Fixtures{Dir: dir, BuildS: m.BuildS}, nil
}

// BuildFixtures writes spec's fixture files into dir: both worlds as
// N-Triples plus mmap-able snapshots (the paper world also as per-shard
// snapshots) and the scale world's candidate-index sidecar.
func BuildFixtures(dir string, spec Spec) error {
	f := Fixtures{Dir: dir}
	paper := synth.Generate(spec.Paper)
	if err := synth.SaveWorld(paper, f.paperDir(), synth.SaveOptions{Snapshots: true}); err != nil {
		return err
	}
	for _, side := range []*kb.KB{paper.Yago, paper.Dbp} {
		paths := f.shardSnapshots(side.Name(), spec.Shards)
		for i, sh := range partition(side, spec.Shards) {
			if err := sh.WriteSnapshotFile(paths[i]); err != nil {
				return err
			}
		}
	}
	scale := synth.Generate(spec.Scale)
	if err := synth.SaveWorld(scale, f.scaleDir(), synth.SaveOptions{Snapshots: true}); err != nil {
		return err
	}
	target := endpoint.NewLocal(scale.Dbp, seedDbp)
	rels, err := candidates.Relations(target)
	if err != nil {
		return err
	}
	ix, err := candidates.Build(target, rels, sampling.LinkView{Links: scale.Links, KIsA: true}, candidates.Options{})
	if err != nil {
		return err
	}
	return ix.WriteIndexFile(f.sidecar())
}

// partition is kb.Partition with a byte-stable result. kb.Partition
// hands each shard the whole-KB planner statistics through SetPlanStats,
// which interns predicates the shard holds no fact of in map order, so
// two runs number those terms differently and write different (though
// equivalent) snapshots. Interning them in term order first pins the
// numbering; everything else is kb.Partition's own recipe.
func partition(src *kb.KB, n int) []*kb.KB {
	shards := make([]*kb.KB, n)
	for i := range shards {
		shards[i] = kb.New(fmt.Sprintf("%s/shard-%d-of-%d", src.Name(), i, n))
	}
	for _, t := range src.Triples() {
		shards[kb.SubjectShard(t.S, n)].Add(t)
	}
	stats := src.PlanStats()
	preds := make([]rdf.Term, 0, len(stats))
	for p := range stats {
		preds = append(preds, p)
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i].Compare(preds[j]) < 0 })
	for _, sh := range shards {
		for _, p := range preds {
			sh.Intern(p)
		}
		sh.SetPlanStats(stats)
	}
	return shards
}
