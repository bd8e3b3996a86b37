package shard

// Federated cold start: standing a 3-shard endpoint group back up from
// kbgen's shard files — N-Triples plus the planner-stats sidecar
// versus self-contained mmap snapshots. The EXPERIMENTS.md restart
// numbers for `-shards 3` come from here.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/kb"
	"sofya/internal/synth"
)

const coldStartShards = 3

type shardFiles struct {
	ntPaths   []string
	snapPaths []string
	statsPath string
}

// paperShardFiles writes the paper-world YAGO shard files once per
// process into a temp dir (reused across the two benchmarks so the
// expensive world generation happens once).
var paperShardFiles = sync.OnceValue(func() *shardFiles {
	src := synth.Generate(synth.DefaultSpec()).Yago
	dir, err := os.MkdirTemp("", "sofya-coldstart-*")
	if err != nil {
		panic(err)
	}
	f := &shardFiles{statsPath: filepath.Join(dir, "yago-planstats.tsv")}
	for i, sh := range kb.Partition(src, coldStartShards) {
		stem := filepath.Join(dir, fmt.Sprintf("yago-shard-%d-of-%d", i, coldStartShards))
		if err := sh.WriteFile(stem + ".nt"); err != nil {
			panic(err)
		}
		if err := sh.WriteSnapshotFile(stem + ".snap"); err != nil {
			panic(err)
		}
		f.ntPaths = append(f.ntPaths, stem+".nt")
		f.snapPaths = append(f.snapPaths, stem+".snap")
	}
	if err := src.WritePlanStatsFile(f.statsPath); err != nil {
		panic(err)
	}
	return f
})

func shardBenchFiles(b *testing.B) *shardFiles {
	b.Helper()
	return paperShardFiles()
}

// BenchmarkGroupColdStartParse rebuilds the federation group the
// pre-snapshot way: parse each shard's N-Triples, install the
// planner-stats sidecar, freeze, federate.
func BenchmarkGroupColdStartParse(b *testing.B) {
	files := shardBenchFiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(files.statsPath)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := kb.ReadPlanStats(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		eps := make([]endpoint.Endpoint, len(files.ntPaths))
		for j, p := range files.ntPaths {
			sh, err := kb.LoadFile(fmt.Sprintf("yago/shard-%d-of-%d", j, coldStartShards), p)
			if err != nil {
				b.Fatal(err)
			}
			sh.SetPlanStats(stats)
			eps[j] = endpoint.NewLocal(sh, 1)
		}
		g, err := NewGroup("yago", 1, eps)
		if err != nil {
			b.Fatal(err)
		}
		if g.Name() != "yago" {
			b.Fatal("bad group")
		}
	}
}

// BenchmarkGroupColdStartSnapshot restarts the same group from mmap
// snapshots: no parsing, no sidecar, no re-index.
func BenchmarkGroupColdStartSnapshot(b *testing.B) {
	files := shardBenchFiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := GroupFromSnapshots(1, files.snapPaths)
		if err != nil {
			b.Fatal(err)
		}
		if g.Name() != "yago" {
			b.Fatal("bad group")
		}
		for _, ep := range g.Shards() {
			if l, ok := ep.(*endpoint.Local); ok {
				l.KB().Close()
			}
		}
	}
}
