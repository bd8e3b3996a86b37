package synth

import (
	"reflect"
	"strings"
	"testing"

	"sofya/internal/kb"
	"sofya/internal/rdf"
)

func TestGenerateDeterministic(t *testing.T) {
	w1 := Generate(TinySpec())
	w2 := Generate(TinySpec())
	if w1.Yago.Size() != w2.Yago.Size() || w1.Dbp.Size() != w2.Dbp.Size() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			w1.Yago.Size(), w1.Dbp.Size(), w2.Yago.Size(), w2.Dbp.Size())
	}
	for _, tr := range w1.Yago.Triples() {
		if !w2.Yago.Has(tr) {
			t.Fatalf("non-deterministic: %v missing from second world", tr)
		}
	}
	if w1.Links.Len() != w2.Links.Len() {
		t.Fatal("link counts differ")
	}
	if len(w1.Truth.DbpToYago) != len(w2.Truth.DbpToYago) {
		t.Fatal("truth sizes differ")
	}
}

func TestGenerateRelationCounts(t *testing.T) {
	spec := TinySpec()
	w := Generate(spec)
	if got := len(w.Report.YagoRelations); got != spec.YagoRelations {
		t.Fatalf("yago relations = %d, want %d", got, spec.YagoRelations)
	}
	if got := len(w.Report.DbpRelations); got != spec.DbpRelations {
		t.Fatalf("dbp relations = %d, want %d", got, spec.DbpRelations)
	}
	// every listed relation exists with at least one fact
	for _, iri := range w.Report.YagoRelations {
		id := w.Yago.LookupIRI(iri)
		if id < 0 || w.Yago.NumFactsOf(id) == 0 {
			t.Fatalf("yago relation %s has no facts", iri)
		}
	}
	empties := 0
	for _, iri := range w.Report.DbpRelations {
		id := w.Dbp.LookupIRI(iri)
		if id < 0 || w.Dbp.NumFactsOf(id) == 0 {
			empties++
		}
	}
	// coverage can eliminate a rare specialization's facts entirely, but
	// it must stay rare.
	if empties > spec.DbpRelations/20 {
		t.Fatalf("%d dbp relations have no facts", empties)
	}
}

func TestGenerateDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full world generation")
	}
	spec := DefaultSpec()
	w := Generate(spec)
	if got := len(w.Report.YagoRelations); got != 92 {
		t.Fatalf("yago relations = %d, want 92", got)
	}
	if got := len(w.Report.DbpRelations); got != 1313 {
		t.Fatalf("dbp relations = %d, want 1313", got)
	}
	if w.Yago.Size() < 5000 || w.Dbp.Size() < 5000 {
		t.Fatalf("world too small: yago=%d dbp=%d", w.Yago.Size(), w.Dbp.Size())
	}
	if w.Report.ConfounderFamilies == 0 || w.Report.SpecializedFamilies == 0 {
		t.Fatalf("phenomena missing: %+v", w.Report)
	}
}

func TestFlagshipFamiliesPresent(t *testing.T) {
	w := Generate(TinySpec())
	for _, iri := range []string{
		yagoNS + "wasBornIn", yagoNS + "created", yagoNS + "directedBy",
		yagoNS + "producedBy", yagoNS + "hasPreferredName", yagoNS + "wasBornOnDate",
	} {
		if id := w.Yago.LookupIRI(iri); id < 0 || w.Yago.NumFactsOf(id) == 0 {
			t.Fatalf("flagship yago relation %s missing", iri)
		}
	}
	for _, iri := range []string{
		dbpNS + "birthPlace", dbpNS + "composerOf", dbpNS + "writerOf",
		dbpNS + "directorOf", dbpNS + "hasDirector", dbpNS + "hasProducer",
		dbpNS + "name", dbpNS + "birthDate",
	} {
		if id := w.Dbp.LookupIRI(iri); id < 0 || w.Dbp.NumFactsOf(id) == 0 {
			t.Fatalf("flagship dbp relation %s missing", iri)
		}
	}
}

func TestGroundTruthShapes(t *testing.T) {
	w := Generate(TinySpec())
	gt := w.Truth
	// equivalences appear in both directions
	if !gt.d2y[gtKey(dbpNS+"birthPlace", yagoNS+"wasBornIn")] {
		t.Fatal("birthPlace ⇒ wasBornIn missing from gold")
	}
	if !gt.y2d[gtKey(yagoNS+"wasBornIn", dbpNS+"birthPlace")] {
		t.Fatal("wasBornIn ⇒ birthPlace missing from gold")
	}
	// specializations are one-directional
	if !gt.d2y[gtKey(dbpNS+"composerOf", yagoNS+"created")] {
		t.Fatal("composerOf ⇒ created missing from gold")
	}
	if gt.y2d[gtKey(yagoNS+"created", dbpNS+"composerOf")] {
		t.Fatal("created ⇒ composerOf must NOT be gold (strict subsumption)")
	}
	// confounders are not aligned to their targets
	if gt.d2y[gtKey(dbpNS+"hasProducer", yagoNS+"directedBy")] {
		t.Fatal("hasProducer ⇒ directedBy must not be gold")
	}
	if !gt.d2y[gtKey(dbpNS+"hasProducer", yagoNS+"producedBy")] {
		t.Fatal("hasProducer ⇒ producedBy missing from gold")
	}
	// no gold pair mentions a noise relation
	for _, p := range gt.DbpToYago {
		if strings.Contains(p.Body, "infobox") || strings.Contains(p.Head, "infobox") {
			t.Fatalf("noise relation in gold: %+v", p)
		}
	}
}

func TestConfounderCorrelation(t *testing.T) {
	w := Generate(TinySpec())
	// measure |director ∩ producer| / |producer| on the Dbp KB
	dir := w.Dbp.LookupIRI(dbpNS + "hasDirector")
	prod := w.Dbp.LookupIRI(dbpNS + "hasProducer")
	if dir < 0 || prod < 0 {
		t.Fatal("flagship confounder relations missing")
	}
	shared, total := 0, 0
	w.Dbp.EachFactOf(prod, func(s, o kb.TermID) bool {
		total++
		if w.Dbp.HasFact(s, dir, o) {
			shared++
		}
		return true
	})
	if total == 0 {
		t.Fatal("no producer facts")
	}
	ratio := float64(shared) / float64(total)
	// configured correlation is 0.72, diluted by per-KB coverage of the
	// director fact (≥0.60); anything clearly above the noise floor and
	// clearly below 1 demonstrates the confounder.
	if ratio < 0.30 || ratio > 0.95 {
		t.Fatalf("producer/director overlap = %f, outside (0.30,0.95)", ratio)
	}
}

func TestSameAsCoverage(t *testing.T) {
	spec := TinySpec()
	w := Generate(spec)
	totalEntities := spec.Persons + spec.Works + spec.Places + spec.Orgs
	got := float64(w.Links.Len()) / float64(totalEntities)
	if got < spec.SameAsCoverage-0.08 || got > spec.SameAsCoverage+0.08 {
		t.Fatalf("sameAs coverage = %f, want ≈ %f", got, spec.SameAsCoverage)
	}
	// links actually translate between namespaces
	for _, p := range w.Links.Pairs()[:5] {
		if !strings.HasPrefix(p.A, yagoNS) || !strings.HasPrefix(p.B, dbrNS) {
			t.Fatalf("link namespaces wrong: %+v", p)
		}
	}
}

func TestLiteralHeterogeneity(t *testing.T) {
	w := Generate(TinySpec())
	// YAGO labels are underscored plain literals
	lbl := w.Yago.LookupIRI(yagoNS + "hasPreferredName")
	found := false
	w.Yago.EachFactOf(lbl, func(s, o kb.TermID) bool {
		term := w.Yago.Term(o)
		if !term.IsLiteral() {
			t.Fatalf("yago label is not a literal: %v", term)
		}
		if strings.Contains(term.Value, "_") {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("no underscored yago label found")
	}
	// DBpedia birth dates are xsd:date; YAGO's are gYear
	bd := w.Dbp.LookupIRI(dbpNS + "birthDate")
	w.Dbp.EachFactOf(bd, func(s, o kb.TermID) bool {
		if dt := w.Dbp.Term(o).Datatype; dt != rdf.XSDDate {
			t.Fatalf("dbp birthDate datatype = %q", dt)
		}
		return false
	})
	yd := w.Yago.LookupIRI(yagoNS + "wasBornOnDate")
	w.Yago.EachFactOf(yd, func(s, o kb.TermID) bool {
		if dt := w.Yago.Term(o).Datatype; dt != rdf.XSDGYear {
			t.Fatalf("yago wasBornOnDate datatype = %q", dt)
		}
		return false
	})
}

func TestNamespacesSeparated(t *testing.T) {
	w := Generate(TinySpec())
	for _, p := range w.Yago.Relations() {
		iri := w.Yago.Term(p).Value
		if !strings.HasPrefix(iri, yagoNS) {
			t.Fatalf("yago KB contains foreign relation %s", iri)
		}
	}
	for _, p := range w.Dbp.Relations() {
		iri := w.Dbp.Term(p).Value
		if !strings.HasPrefix(iri, dbpNS) {
			t.Fatalf("dbp KB contains foreign relation %s", iri)
		}
	}
}

func TestNoiseRelationsAreDbpOnly(t *testing.T) {
	w := Generate(TinySpec())
	if w.Report.NoiseRelations == 0 {
		t.Fatal("no noise relations generated")
	}
	count := 0
	for _, p := range w.Dbp.Relations() {
		if strings.Contains(w.Dbp.Term(p).Value, "infobox") {
			count++
		}
	}
	if count != w.Report.NoiseRelations {
		t.Fatalf("noise relations: report=%d, kb=%d", w.Report.NoiseRelations, count)
	}
}

// TestNamedSpecAndSide is the seam behind every command's -spec,
// -synthetic and -side flag: the known names resolve to what each
// command used to pick by hand, and a misspelt one is refused with the
// accepted names instead of running as a default.
func TestNamedSpecAndSide(t *testing.T) {
	for name, want := range map[string]Spec{"tiny": TinySpec(), "paper": DefaultSpec()} {
		if got, err := SpecNamed(name); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("SpecNamed(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "tny", "papr", "papre", "Tiny", "default"} { // experiments, kbgen, sparqld typos
		if _, err := SpecNamed(name); err == nil || !strings.Contains(err.Error(), "want tiny or paper") {
			t.Errorf("SpecNamed(%q): error %v, want one naming tiny and paper", name, err)
		}
	}

	w := Generate(TinySpec())
	for name, want := range map[string]*kb.KB{"yago": w.Yago, "dbp": w.Dbp} {
		if got, err := w.Side(name); err != nil || got != want {
			t.Errorf("Side(%q) = %v, %v; want the world's own %s", name, got, err, want.Name())
		}
	}
	for _, name := range []string{"", "dpb", "dbpedia", "Yago"} { // loadtest, sparqld typos
		if k, err := w.Side(name); err == nil || k != nil || !strings.Contains(err.Error(), "want yago or dbp") {
			t.Errorf("Side(%q) = %v, %v; want an error naming yago and dbp", name, k, err)
		}
	}
}
