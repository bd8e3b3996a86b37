//go:build linux

package synth

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadWorldFailureUnmapsSnapshots: a load that fails after its KB
// snapshots were mapped — here on a malformed truth.tsv — must release
// the mappings, not leak them with the World it never returned.
func TestLoadWorldFailureUnmapsSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := SaveWorld(Generate(TinySpec()), dir, SaveOptions{Snapshots: true}); err != nil {
		t.Fatal(err)
	}
	mapped := func() (found []string) {
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		for _, name := range []string{"yago.snap", "dbpedia.snap"} {
			if strings.Contains(string(maps), filepath.Join(dir, name)) {
				found = append(found, name)
			}
		}
		return found
	}

	// The check sees a mapping while one is held.
	w, err := LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapped(); len(got) != 2 {
		t.Fatalf("with a loaded world, /proc/self/maps lists %v, want both snapshots", got)
	}
	w.Yago.Close()
	w.Dbp.Close()

	if err := os.WriteFile(filepath.Join(dir, fileTruth), []byte("d2y\tbody\thead\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWorld(dir); err == nil {
		t.Fatal("LoadWorld accepted a 3-field truth line")
	}
	if got := mapped(); len(got) != 0 {
		t.Errorf("after a failed load, /proc/self/maps still lists %v", got)
	}
}
