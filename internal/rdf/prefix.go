package rdf

import (
	"fmt"
	"sort"
	"strings"
)

// PrefixMap maps namespace prefixes (without the colon) to base IRIs.
// It expands compact names like "yago:wasBornIn" into full IRIs and
// compacts full IRIs back to the shortest available qualified name.
type PrefixMap struct {
	byPrefix map[string]string
	// sorted by decreasing base-IRI length so the longest base wins
	// when compacting.
	bases []prefixEntry
}

type prefixEntry struct {
	prefix, base string
}

// NewPrefixMap returns an empty prefix map.
func NewPrefixMap() *PrefixMap {
	return &PrefixMap{byPrefix: make(map[string]string)}
}

// StandardPrefixes returns a prefix map preloaded with the namespaces
// used across this repository: rdf, rdfs, owl, xsd, plus the synthetic
// yago and dbp namespaces emitted by internal/synth.
func StandardPrefixes() *PrefixMap {
	pm := NewPrefixMap()
	pm.Add("rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#")
	pm.Add("rdfs", "http://www.w3.org/2000/01/rdf-schema#")
	pm.Add("owl", "http://www.w3.org/2002/07/owl#")
	pm.Add("xsd", "http://www.w3.org/2001/XMLSchema#")
	pm.Add("yago", "http://yago-knowledge.org/resource/")
	pm.Add("dbp", "http://dbpedia.org/property/")
	pm.Add("dbr", "http://dbpedia.org/resource/")
	return pm
}

// Add registers (or replaces) a prefix binding. The entry is placed
// where a stable sort by decreasing base length would leave it, without
// re-sorting the table.
func (pm *PrefixMap) Add(prefix, base string) {
	at := len(pm.bases)
	if _, ok := pm.byPrefix[prefix]; ok {
		for i := range pm.bases {
			if pm.bases[i].prefix == prefix {
				at = i
				break
			}
		}
		pm.bases = append(pm.bases[:at], pm.bases[at+1:]...)
	}
	pm.byPrefix[prefix] = base
	// Entries with a base as long as the new one keep their side of
	// the old position: [lo, hi) is their block.
	lo := sort.Search(len(pm.bases), func(i int) bool { return len(pm.bases[i].base) <= len(base) })
	hi := sort.Search(len(pm.bases), func(i int) bool { return len(pm.bases[i].base) < len(base) })
	at = min(max(at, lo), hi)
	pm.bases = append(pm.bases, prefixEntry{})
	copy(pm.bases[at+1:], pm.bases[at:])
	pm.bases[at] = prefixEntry{prefix, base}
}

// Base returns the base IRI bound to prefix, if any.
func (pm *PrefixMap) Base(prefix string) (string, bool) {
	b, ok := pm.byPrefix[prefix]
	return b, ok
}

// Expand turns a compact name "prefix:local" into a full IRI. Inputs that
// already look like absolute IRIs (contain "://") are returned unchanged.
func (pm *PrefixMap) Expand(qname string) (string, error) {
	if strings.Contains(qname, "://") {
		return qname, nil
	}
	i := strings.IndexByte(qname, ':')
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is neither a qualified name nor an absolute IRI", qname)
	}
	prefix, local := qname[:i], qname[i+1:]
	base, ok := pm.byPrefix[prefix]
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q in %q", prefix, qname)
	}
	return base + local, nil
}

// Compact shortens a full IRI to "prefix:local" using the longest
// matching base. If no base matches, the IRI is returned unchanged.
func (pm *PrefixMap) Compact(iri string) string {
	for _, e := range pm.bases {
		if strings.HasPrefix(iri, e.base) {
			return e.prefix + ":" + iri[len(e.base):]
		}
	}
	return iri
}

// Prefixes returns the registered prefixes in deterministic order.
func (pm *PrefixMap) Prefixes() []string {
	out := make([]string, 0, len(pm.byPrefix))
	for p := range pm.byPrefix {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
