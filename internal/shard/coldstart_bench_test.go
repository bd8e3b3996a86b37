package shard

// Federated cold start: standing a 3-shard endpoint group back up from
// kbgen's shard files, the self-contained mmap snapshots. The
// EXPERIMENTS.md restart number for `-shards 3` comes from here.

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

type shardFiles struct{ snapPaths []string }

// paperShardFiles writes the paper-world YAGO shard files once per
// process into a temp dir (so the expensive world generation happens
// once however often the benchmark function is entered).
var paperShardFiles = sync.OnceValue(func() *shardFiles {
	src := synth.Generate(synth.DefaultSpec()).Yago
	dir, err := os.MkdirTemp("", "sofya-coldstart-*")
	if err != nil {
		panic(err)
	}
	f := &shardFiles{}
	for i, sh := range kb.Partition(src, coldStartShards) {
		stem := filepath.Join(dir, fmt.Sprintf("yago-shard-%d-of-%d", i, coldStartShards))
		if err := sh.WriteSnapshotFile(stem + ".snap"); err != nil {
			panic(err)
		}
		f.snapPaths = append(f.snapPaths, stem+".snap")
	}
	return f
})

func shardBenchFiles(b *testing.B) *shardFiles {
	b.Helper()
	return paperShardFiles()
}

// BenchmarkGroupColdStartSnapshot restarts the group from mmap
// snapshots: no parsing, no re-index.
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
