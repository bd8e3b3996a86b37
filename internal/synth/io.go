package synth

// io.go persists a generated world and loads it back: the bridge
// between cmd/kbgen (which writes worlds to disk) and cmd/experiments
// (which can now restart from disk instead of regenerating). A saved
// world round-trips exactly — KBs (N-Triples and, optionally, binary
// snapshots that load by mmap in milliseconds), sameAs links, gold
// truth, the relation universe, and the generation report — so an
// experiment run over a loaded world is byte-identical to one over the
// freshly generated world it was saved from.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"sofya/internal/kb"
	"sofya/internal/sameas"
)

// SaveOptions selects the on-disk representation of a saved world.
type SaveOptions struct {
	// Snapshots additionally writes binary KB snapshots (yago.snap,
	// dbpedia.snap) next to the N-Triples; kb.OpenSnapshot serves them
	// by memory-mapping, skipping the parse and re-index cost entirely.
	Snapshots bool
	// Shards > 1 additionally writes each KB partitioned into that many
	// subject-hash shard snapshots (<name>-shard-<i>-of-<n>.snap), with
	// or without Snapshots. They are self-contained — each embeds the
	// whole KB's planner statistics — and a complete set restarts as a
	// federation group (shard.GroupFromSnapshots).
	Shards int
}

// World file names under the save directory.
const (
	fileLinks     = "links.tsv"
	fileTruth     = "truth.tsv"
	fileRelations = "relations.tsv"
	fileReport    = "report.tsv"
)

// SaveWorld writes w into dir (created if needed). See SaveOptions for
// the layout; LoadWorld reads it back.
func SaveWorld(w *World, dir string, opts SaveOptions) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, side := range []*kb.KB{w.Yago, w.Dbp} {
		// Remove outputs a previous save may have left that this save
		// will not rewrite: LoadWorld prefers a .snap over the .nt, and
		// sparqld globs shard files, so stale ones would silently serve
		// a different world than the fresh sidecars describe.
		if stale, err := filepath.Glob(filepath.Join(dir, side.Name()+"-shard-*")); err == nil {
			for _, p := range stale {
				os.Remove(p)
			}
		}
		if !opts.Snapshots {
			os.Remove(filepath.Join(dir, side.Name()+".snap"))
		}

		if err := side.WriteFile(filepath.Join(dir, side.Name()+".nt")); err != nil {
			return err
		}
		if opts.Snapshots {
			if err := side.WriteSnapshotFile(filepath.Join(dir, side.Name()+".snap")); err != nil {
				return err
			}
		}
		if opts.Shards > 1 {
			for i, sh := range kb.Partition(side, opts.Shards) {
				name := fmt.Sprintf("%s-shard-%d-of-%d.snap", side.Name(), i, opts.Shards)
				if err := sh.WriteSnapshotFile(filepath.Join(dir, name)); err != nil {
					return err
				}
			}
		}
	}
	if err := writeTSV(filepath.Join(dir, fileLinks), func(bw *bufio.Writer) error {
		for _, p := range w.Links.Pairs() {
			if _, err := fmt.Fprintf(bw, "%s\t%s\n", p.A, p.B); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := writeTSV(filepath.Join(dir, fileTruth), func(bw *bufio.Writer) error {
		return writeTruthPairs(bw, w.Truth)
	}); err != nil {
		return err
	}
	if err := writeTSV(filepath.Join(dir, fileRelations), func(bw *bufio.Writer) error {
		for _, iri := range w.Report.YagoRelations {
			if _, err := fmt.Fprintf(bw, "yago\t%s\n", iri); err != nil {
				return err
			}
		}
		for _, iri := range w.Report.DbpRelations {
			if _, err := fmt.Fprintf(bw, "dbpedia\t%s\n", iri); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeTSV(filepath.Join(dir, fileReport), func(bw *bufio.Writer) error {
		r := w.Report
		for _, kv := range [][2]any{
			{"families", r.Families},
			{"confounder_families", r.ConfounderFamilies},
			{"specialized_families", r.SpecializedFamilies},
			{"literal_families", r.LiteralFamilies},
			{"variant_relations", r.VariantRelations},
			{"noise_relations", r.NoiseRelations},
			{"yago_facts", r.YagoFacts},
			{"dbp_facts", r.DbpFacts},
			{"sameas_links", r.SameAsLinks},
		} {
			if _, err := fmt.Fprintf(bw, "%s\t%d\n", kv[0], kv[1]); err != nil {
				return err
			}
		}
		return nil
	})
}

func writeTruthPairs(w io.Writer, gt *GroundTruth) error {
	emit := func(dir string, pairs []TruthPair) error {
		for _, p := range pairs {
			kind := "subsumed"
			if p.Equivalent {
				kind = "equivalent"
			}
			if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", dir, p.Body, p.Head, kind); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("d2y", gt.DbpToYago); err != nil {
		return err
	}
	return emit("y2d", gt.YagoToDbp)
}

func writeTSV(path string, body func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := body(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadWorld reads a world saved by SaveWorld (or cmd/kbgen) back from
// dir. Each KB loads from its binary snapshot when one is present —
// memory-mapped, no parsing — and falls back to parsing the N-Triples
// file otherwise. The result is equivalent to the generated world it
// was saved from: same KBs (contents and iteration orders), links,
// truth, relation universe and report, so experiment output over a
// loaded world matches the generated one byte for byte.
func LoadWorld(dir string) (_ *World, err error) {
	w := &World{Links: sameas.New(), Truth: newGroundTruth()}
	// A load that fails part-way must not leave its snapshots mapped.
	defer func() {
		if err != nil {
			for _, k := range []*kb.KB{w.Yago, w.Dbp} {
				if k != nil {
					k.Close()
				}
			}
		}
	}()
	if w.Yago, err = loadKBFile(dir, "yago"); err != nil {
		return nil, err
	}
	if w.Dbp, err = loadKBFile(dir, "dbpedia"); err != nil {
		return nil, err
	}
	if err := scanTSV(filepath.Join(dir, fileLinks), 2, func(f []string) error {
		w.Links.Add(f[0], f[1])
		return nil
	}); err != nil {
		return nil, err
	}
	if err := scanTSV(filepath.Join(dir, fileTruth), 4, func(f []string) error {
		equiv := f[3] == "equivalent"
		switch f[0] {
		case "d2y":
			w.Truth.addD2Y(f[1], f[2], equiv)
		case "y2d":
			w.Truth.addY2D(f[1], f[2], equiv)
		default:
			return fmt.Errorf("unknown truth direction %q", f[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := scanTSV(filepath.Join(dir, fileRelations), 2, func(f []string) error {
		switch f[0] {
		case "yago":
			w.Report.YagoRelations = append(w.Report.YagoRelations, f[1])
		case "dbpedia":
			w.Report.DbpRelations = append(w.Report.DbpRelations, f[1])
		default:
			return fmt.Errorf("unknown relation side %q", f[0])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	counts := map[string]*int{
		"families":             &w.Report.Families,
		"confounder_families":  &w.Report.ConfounderFamilies,
		"specialized_families": &w.Report.SpecializedFamilies,
		"literal_families":     &w.Report.LiteralFamilies,
		"variant_relations":    &w.Report.VariantRelations,
		"noise_relations":      &w.Report.NoiseRelations,
		"yago_facts":           &w.Report.YagoFacts,
		"dbp_facts":            &w.Report.DbpFacts,
		"sameas_links":         &w.Report.SameAsLinks,
	}
	if err := scanTSV(filepath.Join(dir, fileReport), 2, func(f []string) error {
		dst, ok := counts[f[0]]
		if !ok {
			return nil // forward compatibility: ignore unknown counters
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return err
		}
		*dst = n
		return nil
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// loadKBFile opens <dir>/<name>.snap when present, else parses
// <dir>/<name>.nt. An unreadable or corrupt snapshot falls back to the
// N-Triples file when that exists (identical contents, slower load),
// so a damaged .snap never strands a directory that still has its .nt.
func loadKBFile(dir, name string) (*kb.KB, error) {
	snap := filepath.Join(dir, name+".snap")
	nt := filepath.Join(dir, name+".nt")
	if _, err := os.Stat(snap); err == nil {
		k, err := kb.OpenSnapshot(snap)
		if err == nil {
			return k, nil
		}
		if _, ntErr := os.Stat(nt); ntErr != nil {
			return nil, err
		}
	}
	return kb.LoadFile(name, nt)
}

// scanTSV applies fn to every non-empty, non-comment line of a
// tab-separated file, enforcing the field count.
func scanTSV(path string, fields int, fn func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, "\t")
		if len(parts) != fields {
			return fmt.Errorf("%s:%d: want %d tab-separated fields, got %d", path, line, fields, len(parts))
		}
		if err := fn(parts); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}
