package synth

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestLoadWorldCorruptSnapshotFallsBack: a truncated .snap next to an
// intact .nt must not strand the directory — LoadWorld falls back to
// parsing the N-Triples.
func TestLoadWorldCorruptSnapshotFallsBack(t *testing.T) {
	w := Generate(TinySpec())
	dir := t.TempDir()
	if err := SaveWorld(w, dir, SaveOptions{Snapshots: true}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "yago.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadWorld(dir)
	if err != nil {
		t.Fatalf("LoadWorld with corrupt snapshot: %v", err)
	}
	if got.Yago.Mapped() {
		t.Error("corrupt snapshot should have fallen back to N-Triples")
	}
	if !reflect.DeepEqual(got.Yago.Triples(), w.Yago.Triples()) {
		t.Error("fallback load diverges from the source KB")
	}
}

// TestSaveWorldRemovesStaleOutputs: re-saving into a directory that
// previously held snapshots and shard files must not leave stale ones
// behind — LoadWorld would prefer an old .snap over the fresh .nt.
func TestSaveWorldRemovesStaleOutputs(t *testing.T) {
	big := Generate(TinySpec())
	dir := t.TempDir()
	if err := SaveWorld(big, dir, SaveOptions{Snapshots: true, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	spec := TinySpec()
	spec.Seed++
	fresh := Generate(spec)
	if err := SaveWorld(fresh, dir, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, leftover := range []string{"yago.snap", "dbpedia.snap", "yago-shard-0-of-3.snap", "dbpedia-shard-2-of-3.snap"} {
		if _, err := os.Stat(filepath.Join(dir, leftover)); err == nil {
			t.Errorf("stale %s survived the re-save", leftover)
		}
	}
	got, err := LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Yago.Triples(), fresh.Yago.Triples()) {
		t.Error("LoadWorld served a stale KB after re-save")
	}
}

// TestSaveLoadWorldRoundTrip: a saved world loads back equivalent —
// KBs byte-identical (via Triples), links, truth (including the lookup
// maps), the relation universe and the report.
func TestSaveLoadWorldRoundTrip(t *testing.T) {
	for _, snapshots := range []bool{false, true} {
		name := "nt"
		if snapshots {
			name = "snapshots"
		}
		t.Run(name, func(t *testing.T) {
			w := Generate(TinySpec())
			dir := t.TempDir()
			if err := SaveWorld(w, dir, SaveOptions{Snapshots: snapshots, Shards: 3}); err != nil {
				t.Fatal(err)
			}
			// Shards are written as self-contained snapshots, with or
			// without Snapshots, and as nothing else.
			for _, side := range []string{"yago", "dbpedia"} {
				if _, err := os.Stat(filepath.Join(dir, side+".snap")); (err == nil) != snapshots {
					t.Errorf("%s.snap: present = %v, want %v", side, err == nil, snapshots)
				}
				perShard, _ := filepath.Glob(filepath.Join(dir, side+"-shard-*"))
				var want []string
				for i := 0; i < 3; i++ {
					want = append(want, filepath.Join(dir, fmt.Sprintf("%s-shard-%d-of-3.snap", side, i)))
				}
				if !reflect.DeepEqual(perShard, want) {
					t.Errorf("%s shard files = %v, want %v", side, perShard, want)
				}
			}
			got, err := LoadWorld(dir)
			if err != nil {
				t.Fatal(err)
			}
			if snapshots && !got.Yago.Mapped() {
				t.Error("LoadWorld did not use the snapshot (KB not mapped)")
			}
			if !reflect.DeepEqual(got.Yago.Triples(), w.Yago.Triples()) {
				t.Error("yago triples diverge after save/load")
			}
			if !reflect.DeepEqual(got.Dbp.Triples(), w.Dbp.Triples()) {
				t.Error("dbpedia triples diverge after save/load")
			}
			if !reflect.DeepEqual(got.Links.Pairs(), w.Links.Pairs()) {
				t.Error("links diverge after save/load")
			}
			if !reflect.DeepEqual(got.Truth.YagoToDbp, w.Truth.YagoToDbp) ||
				!reflect.DeepEqual(got.Truth.DbpToYago, w.Truth.DbpToYago) {
				t.Error("truth pairs diverge after save/load")
			}
			for _, p := range w.Truth.DbpToYago {
				if !got.Truth.d2y[gtKey(p.Body, p.Head)] {
					t.Errorf("loaded truth lost d2y pair %s => %s", p.Body, p.Head)
				}
			}
			if !reflect.DeepEqual(got.Report, w.Report) {
				t.Errorf("report diverges after save/load:\n got %+v\nwant %+v", got.Report, w.Report)
			}
		})
	}
}
