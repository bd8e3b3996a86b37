package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sameas"
)

// World is a generated evaluation substrate.
type World struct {
	// Yago and Dbp are the two derived KBs.
	Yago, Dbp *kb.KB
	// Links maps YAGO entity IRIs (side A) to DBpedia entity IRIs
	// (side B).
	Links *sameas.Links
	// Truth is the gold-standard alignment.
	Truth *GroundTruth
	// Report summarizes what was generated.
	Report Report
}

// Side resolves the KB name a command's -side flag takes: "yago" or
// "dbp". Any other name is an error that lists the two.
func (w *World) Side(name string) (*kb.KB, error) {
	switch name {
	case "yago":
		return w.Yago, nil
	case "dbp":
		return w.Dbp, nil
	}
	return nil, fmt.Errorf("unknown side %q: want yago or dbp", name)
}

// Report counts the generated structures, for documentation and tests.
type Report struct {
	Families            int
	ConfounderFamilies  int
	SpecializedFamilies int
	LiteralFamilies     int
	VariantRelations    int
	NoiseRelations      int
	YagoFacts, DbpFacts int
	SameAsLinks         int
	// YagoRelations and DbpRelations list the relation IRIs that form
	// the alignment universe, sorted.
	YagoRelations []string
	DbpRelations  []string
}

type litKind uint8

const (
	litNone litKind = iota
	litLabel
	litYear
	litNumber
)

// family is one canonical relation of the world.
type family struct {
	idx        int
	verb       string // canonical camelCase verb
	dom, ran   class
	lit        litKind
	functional bool
	fanout     int // max objects per subject for non-functional
	nFacts     int

	yagoRel string   // YAGO relation IRI
	dbpRels []string // either one equivalent or ≥2 specializations
	split   bool     // true when dbpRels are specializations

	yCov, dCov float64 // per-subject retention in each KB
	gmr        float64 // cross-KB object-disagreement rate (dbp side)

	confOf int     // index of confounded family, or -1
	corr   float64 // object-sharing probability with confOf

	// variantSource marks clean families whose dbp relations may grow
	// near-duplicate variants.
	variantSource bool

	facts []factPair // canonical facts (entity indexes into pools)
}

type factPair struct {
	s, o int // entity index in dom/ran pool; o is a synthetic value seed for literals
}

type generator struct {
	spec Spec
	rng  *rand.Rand

	pools    [numClasses][]string // display names per class
	families []*family

	// usedRel holds every relation IRI handed out so far. Derived names
	// are not injective — dbpVariantName("actedIn1", 20) and
	// dbpVariantName("actedIn12", 0) both render "actedIn120" — and the
	// KB would silently merge the colliding relations while the report
	// and gold truth still listed both names. Every relation IRI must
	// pass through reserveRel.
	usedRel map[string]bool

	// clean dbp facts buffered during emission, feeding variant
	// relations: relation IRI → emitted (subject, object) pool indexes.
	dbpEmitted    map[string][]factPair
	dbpEmittedFam map[string]*family

	world *World
}

// Generate builds a world from the spec. Generation is deterministic in
// the spec (including the seed).
func Generate(spec Spec) *World {
	g := &generator{
		spec:    spec,
		rng:     rand.New(rand.NewSource(spec.Seed)),
		usedRel: make(map[string]bool),
		world: &World{
			Yago:  kb.New("yago"),
			Dbp:   kb.New("dbpedia"),
			Links: sameas.New(),
			Truth: newGroundTruth(),
		},
	}
	g.buildPools()
	g.buildFlagshipFamilies()
	g.buildAutoFamilies()
	g.buildFacts()
	g.emitKBs()
	g.emitVariants()
	g.emitNoiseRelations()
	g.emitSameAs()
	g.buildTruth()
	g.finishReport()
	return g.world
}

func (g *generator) buildPools() {
	sizes := [numClasses]int{
		clPerson: g.spec.Persons,
		clWork:   g.spec.Works,
		clPlace:  g.spec.Places,
		clOrg:    g.spec.Orgs,
	}
	for c := class(0); c < numClasses; c++ {
		pool := make([]string, sizes[c])
		for i := range pool {
			pool[i] = entityName(c, i, g.rng)
		}
		g.pools[c] = pool
	}
}

// flagship families mirror the paper's §2.2 examples explicitly.
func (g *generator) buildFlagshipFamilies() {
	add := func(f *family) *family {
		f.idx = len(g.families)
		f.confOf = -1
		g.families = append(g.families, f)
		return f
	}

	// wasBornIn ≡ birthPlace: the paper's introduction example.
	born := add(&family{verb: "birthPlace", dom: clPerson, ran: clPlace, functional: true})
	born.yagoRel = g.reserveRel(yagoNS + "wasBornIn")
	born.dbpRels = []string{g.reserveRel(dbpNS + "birthPlace")}

	// created ⊐ {composerOf, writerOf, directorOf}: §2.2 example 1
	// (subsumptions that are not equivalences).
	created := add(&family{verb: "created", dom: clPerson, ran: clWork, functional: false, fanout: 3})
	created.yagoRel = g.reserveRel(yagoNS + "created")
	created.dbpRels = []string{
		g.reserveRel(dbpNS + "composerOf"),
		g.reserveRel(dbpNS + "writerOf"),
		g.reserveRel(dbpNS + "directorOf"),
	}
	created.split = true

	// directedBy ≡ hasDirector, with producedBy ≡ hasProducer as its
	// correlated confounder: §2.2 example 2 (overlaps that are not
	// subsumptions).
	directed := add(&family{verb: "directedBy", dom: clWork, ran: clPerson, functional: true})
	directed.yagoRel = g.reserveRel(yagoNS + "directedBy")
	directed.dbpRels = []string{g.reserveRel(dbpNS + "hasDirector")}

	produced := add(&family{verb: "producedBy", dom: clWork, ran: clPerson, functional: true})
	produced.yagoRel = g.reserveRel(yagoNS + "producedBy")
	produced.dbpRels = []string{g.reserveRel(dbpNS + "hasProducer")}
	produced.confOf = directed.idx
	produced.corr = 0.72

	// label: entity–literal with formatting heterogeneity.
	label := add(&family{verb: "label", dom: clPerson, lit: litLabel, functional: true})
	label.yagoRel = g.reserveRel(yagoNS + "hasPreferredName")
	label.dbpRels = []string{g.reserveRel(dbpNS + "name")}

	// birth date: gYear (YAGO) vs full xsd:date (DBpedia).
	bdate := add(&family{verb: "birthDate", dom: clPerson, lit: litYear, functional: true})
	bdate.yagoRel = g.reserveRel(yagoNS + "wasBornOnDate")
	bdate.dbpRels = []string{g.reserveRel(dbpNS + "birthDate")}
}

func (g *generator) buildAutoFamilies() {
	for len(g.families) < g.spec.YagoRelations {
		i := len(g.families)
		f := &family{idx: i, confOf: -1}
		base := relVerbs[g.rng.Intn(len(relVerbs))] + relSuffixes[g.rng.Intn(len(relSuffixes))]
		f.verb = fmt.Sprintf("%s%d", base, i)
		f.dom = class(g.rng.Intn(int(numClasses)))
		if g.rng.Float64() < g.spec.LiteralFraction {
			f.lit = []litKind{litLabel, litYear, litNumber}[g.rng.Intn(3)]
			f.functional = true
			// at most one label relation per domain class: two label
			// families over the same subjects would hold identical
			// strings, which in the real world would make them the same
			// relation, not a gold-negative pair.
			if f.lit == litLabel && g.labelFamilyExists(f.dom) {
				f.lit = litYear
			}
		} else {
			f.ran = class(g.rng.Intn(int(numClasses)))
			f.functional = g.rng.Float64() < 0.55
			if !f.functional {
				f.fanout = 2 + g.rng.Intn(3)
			}
		}
		f.yagoRel = g.reserveRel(yagoNS + yagoStyleName(f.verb, g.rng))

		// confounder? requires a compatible earlier entity-entity family
		if f.lit == litNone && g.rng.Float64() < g.spec.ConfounderFraction {
			if prev := g.findConfounderTarget(f); prev != nil {
				f.confOf = prev.idx
				f.dom, f.ran = prev.dom, prev.ran
				f.functional = prev.functional
				f.fanout = prev.fanout
				lo, hi := g.spec.ConfounderCorrelation[0], g.spec.ConfounderCorrelation[1]
				f.corr = lo + g.rng.Float64()*(hi-lo)
			}
		}

		// DBpedia side: split or equivalent
		if f.lit == litNone && f.confOf < 0 && g.rng.Float64() < g.spec.SpecializationFraction {
			k := 2 + g.rng.Intn(g.spec.MaxSpecializations-1)
			f.split = true
			for j := 0; j < k; j++ {
				f.dbpRels = append(f.dbpRels, g.reserveRel(dbpNS+dbpVariantName(f.verb, j, g.rng)))
			}
			// specializations of functional relations split by object,
			// which requires fanout ≥ 2 for UBS overlap subjects to
			// exist; force non-functional.
			if f.functional {
				f.functional = false
				f.fanout = 2
			}
		} else {
			f.dbpRels = []string{g.reserveRel(dbpNS + dbpVariantName(f.verb, 0, g.rng))}
		}
		g.families = append(g.families, f)
	}
}

// labelFamilyExists reports whether a litLabel family already covers
// the domain class.
func (g *generator) labelFamilyExists(dom class) bool {
	for _, f := range g.families {
		if f.lit == litLabel && f.dom == dom {
			return true
		}
	}
	return false
}

// findConfounderTarget picks an earlier entity-entity, non-split family
// that nothing else confounds yet.
func (g *generator) findConfounderTarget(f *family) *family {
	taken := map[int]bool{}
	for _, other := range g.families {
		if other.confOf >= 0 {
			taken[other.confOf] = true
		}
	}
	var candidates []*family
	for _, other := range g.families {
		if other.lit == litNone && !other.split && other.confOf < 0 && !taken[other.idx] {
			candidates = append(candidates, other)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[g.rng.Intn(len(candidates))]
}

func (g *generator) buildFacts() {
	for _, f := range g.families {
		f.yCov = g.spec.YagoCoverage[0] + g.rng.Float64()*(g.spec.YagoCoverage[1]-g.spec.YagoCoverage[0])
		f.dCov = g.spec.DbpCoverage[0] + g.rng.Float64()*(g.spec.DbpCoverage[1]-g.spec.DbpCoverage[0])

		if f.confOf >= 0 {
			g.buildConfounderFacts(f, g.families[f.confOf])
			continue
		}
		n := g.factCount(f)
		domPool := g.pools[f.dom]
		if f.functional || f.lit != litNone {
			// distinct subjects, one object each
			perm := g.rng.Perm(len(domPool))
			if n > len(perm) {
				n = len(perm)
			}
			for i := 0; i < n; i++ {
				f.facts = append(f.facts, factPair{s: perm[i], o: g.objectFor(f, perm[i], 0)})
			}
		} else {
			subjects := n / ((f.fanout + 1) / 2)
			if subjects < 1 {
				subjects = 1
			}
			perm := g.rng.Perm(len(domPool))
			if subjects > len(perm) {
				subjects = len(perm)
			}
			for i := 0; i < subjects; i++ {
				k := 1 + g.rng.Intn(f.fanout)
				seen := map[int]bool{}
				for j := 0; j < k; j++ {
					o := g.objectFor(f, perm[i], j)
					if seen[o] {
						continue
					}
					seen[o] = true
					f.facts = append(f.facts, factPair{s: perm[i], o: o})
				}
			}
		}
	}
}

// factCount draws a log-uniform family size around BaseFacts.
func (g *generator) factCount(f *family) int {
	u := -1.6 + g.rng.Float64()*4.0 // exponent in [-1.6, 2.4]
	n := int(float64(g.spec.BaseFacts) * math.Pow(2, u))
	if n < 8 {
		n = 8
	}
	return n
}

func (g *generator) objectFor(f *family, subj, ord int) int {
	if f.lit != litNone {
		// literal families derive the value from the subject index so
		// both KBs agree; the int is a value seed.
		return subj
	}
	return g.rng.Intn(len(g.pools[f.ran]))
}

// buildConfounderFacts correlates f with target: same subjects; shared
// object with probability f.corr.
func (g *generator) buildConfounderFacts(f, target *family) {
	for _, tf := range target.facts {
		o := tf.o
		if g.rng.Float64() >= f.corr {
			o = g.rng.Intn(len(g.pools[f.ran]))
		}
		f.facts = append(f.facts, factPair{s: tf.s, o: o})
	}
}

// emitKBs derives the two KBs from the canonical facts.
//
// Coverage is per (relation, subject), not per fact: a KB either knows
// all objects a subject has under a relation or none of them. This is
// the completeness model the PCA (Equation 2) assumes — "a KB knows
// either all or none of the r-attributes of some x" — and it is what
// keeps UBS contradictions trustworthy.
func (g *generator) emitKBs() {
	g.dbpEmitted = make(map[string][]factPair)
	g.dbpEmittedFam = make(map[string]*family)
	confTargets := map[int]bool{}
	for _, f := range g.families {
		if f.confOf >= 0 {
			confTargets[f.confOf] = true
		}
	}
	for _, f := range g.families {
		// clean entity relations (no granularity mismatch) can grow
		// near-duplicate variants; buffer their dbp facts.
		f.variantSource = f.lit == litNone && (f.split || f.confOf >= 0 || confTargets[f.idx])
		// granularity mismatch by family kind; see Spec.
		f.gmr = g.spec.ValueNoise
		switch {
		case f.lit != litNone || f.confOf >= 0 || confTargets[f.idx]:
			// clean: base value noise only
		case f.split:
			lo, hi := g.spec.SpecGranularityMismatch[0], g.spec.SpecGranularityMismatch[1]
			f.gmr += lo + g.rng.Float64()*(hi-lo)
		default:
			lo, hi := g.spec.GranularityMismatch[0], g.spec.GranularityMismatch[1]
			f.gmr += lo + g.rng.Float64()*(hi-lo)
		}

		yKeep := map[int]bool{}
		dKeep := map[int]bool{}
		decide := func(m map[int]bool, s int, cov float64) bool {
			if v, ok := m[s]; ok {
				return v
			}
			v := g.rng.Float64() < cov
			m[s] = v
			return v
		}
		for _, fp := range f.facts {
			inYago := decide(yKeep, fp.s, f.yCov)
			inDbp := decide(dKeep, fp.s, f.dCov)
			// cross-KB disagreement: dbp sees a different object
			dbpO := fp.o
			if f.lit == litNone && g.rng.Float64() < f.gmr {
				dbpO = g.rng.Intn(len(g.pools[f.ran]))
			}
			if inYago {
				g.addYagoFact(f, fp.s, fp.o)
			}
			if inDbp {
				g.addDbpFact(f, fp.s, dbpO)
			}
		}
	}
}

func (g *generator) addYagoFact(f *family, s, o int) {
	subj := rdf.NewIRI(yagoEntityIRI(g.pools[f.dom][s]))
	pred := rdf.NewIRI(f.yagoRel)
	g.world.Yago.Add(rdf.NewTriple(subj, pred, g.yagoObject(f, o)))
}

// literalYear derives a family-specific year for value seed o: distinct
// literal relations of the same subject hold different values (birth
// year vs founding year), exactly as in real KBs.
func literalYear(f *family, o int) int { return 1700 + (o*3+f.idx*13)%320 }

func literalNumber(f *family, o int) int { return 1000 + (o*17+f.idx*911)%90000 }

func (g *generator) yagoObject(f *family, o int) rdf.Term {
	switch f.lit {
	case litNone:
		return rdf.NewIRI(yagoEntityIRI(g.pools[f.ran][o]))
	case litLabel:
		// YAGO style: underscored label
		name := g.pools[f.dom][o]
		return rdf.NewLiteral(underscored(name))
	case litYear:
		return rdf.NewTypedLiteral(fmt.Sprintf("%d", literalYear(f, o)), rdf.XSDGYear)
	default: // litNumber
		return rdf.NewTypedLiteral(fmt.Sprintf("%d", literalNumber(f, o)), rdf.XSDInteger)
	}
}

func (g *generator) addDbpFact(f *family, s, o int) {
	subj := rdf.NewIRI(dbpEntityIRI(g.pools[f.dom][s]))
	rel := f.dbpRels[0]
	if f.split {
		rel = f.dbpRels[o%len(f.dbpRels)]
	}
	pred := rdf.NewIRI(rel)
	g.world.Dbp.Add(rdf.NewTriple(subj, pred, g.dbpObject(f, o)))
	if f.variantSource {
		g.dbpEmitted[rel] = append(g.dbpEmitted[rel], factPair{s: s, o: o})
		g.dbpEmittedFam[rel] = f
	}
}

// emitVariants derives DBpedia-only near-duplicate relations from clean
// dbp relations: a subject subset with imperfect object agreement. They
// model the raw-infobox synonym tail of real DBpedia (dbp:birthPlace vs
// dbp:placeOfBirth vs dbp:origin) and are gold-negative.
func (g *generator) emitVariants() {
	rels := make([]string, 0, len(g.dbpEmitted))
	for rel := range g.dbpEmitted {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	maxV := g.spec.MaxVariantsPerRelation
	if maxV < 1 {
		maxV = 1
	}
	for _, rel := range rels {
		if g.rng.Float64() >= g.spec.VariantFraction {
			continue
		}
		f := g.dbpEmittedFam[rel]
		n := 1 + g.rng.Intn(maxV)
		for v := 0; v < n; v++ {
			agr := g.spec.VariantAgreement[0] +
				g.rng.Float64()*(g.spec.VariantAgreement[1]-g.spec.VariantAgreement[0])
			cov := g.spec.VariantSubjectCoverage[0] +
				g.rng.Float64()*(g.spec.VariantSubjectCoverage[1]-g.spec.VariantSubjectCoverage[0])
			vrel := rdf.NewIRI(g.reserveRel(fmt.Sprintf("%sRaw%d", rel, v)))
			keep := map[int]bool{}
			added := 0
			for _, fp := range g.dbpEmitted[rel] {
				k, seen := keep[fp.s]
				if !seen {
					k = g.rng.Float64() < cov
					keep[fp.s] = k
				}
				if !k {
					continue
				}
				o := fp.o
				if g.rng.Float64() >= agr {
					o = g.rng.Intn(len(g.pools[f.ran]))
				}
				subj := rdf.NewIRI(dbpEntityIRI(g.pools[f.dom][fp.s]))
				obj := rdf.NewIRI(dbpEntityIRI(g.pools[f.ran][o]))
				if g.world.Dbp.Add(rdf.NewTriple(subj, vrel, obj)) {
					added++
				}
			}
			if added > 0 {
				g.world.Report.VariantRelations++
			}
		}
	}
}

func (g *generator) dbpObject(f *family, o int) rdf.Term {
	switch f.lit {
	case litNone:
		return rdf.NewIRI(dbpEntityIRI(g.pools[f.ran][o]))
	case litLabel:
		return rdf.NewLangLiteral(g.pools[f.dom][o], "en")
	case litYear:
		year := literalYear(f, o)
		month := 1 + o%12
		day := 1 + o%28
		return rdf.NewTypedLiteral(fmt.Sprintf("%04d-%02d-%02d", year, month, day), rdf.XSDDate)
	default: // litNumber
		return rdf.NewTypedLiteral(fmt.Sprintf("%d", literalNumber(f, o)), rdf.XSDInteger)
	}
}

// emitNoiseRelations fills the DBpedia relation count with long-tail
// raw-infobox properties that have no YAGO counterpart.
func (g *generator) emitNoiseRelations() {
	have := g.world.Report.VariantRelations
	for _, f := range g.families {
		have += len(f.dbpRels)
	}
	need := g.spec.DbpRelations - have
	for i := 0; i < need; i++ {
		rel := rdf.NewIRI(g.reserveRel(fmt.Sprintf("%sinfobox%s%d", dbpNS,
			relVerbs[g.rng.Intn(len(relVerbs))], i)))
		n := 2 + g.rng.Intn(g.spec.NoiseFactsMax-1)
		dom := class(g.rng.Intn(int(numClasses)))
		for j := 0; j < n; j++ {
			s := g.rng.Intn(len(g.pools[dom]))
			subj := rdf.NewIRI(dbpEntityIRI(g.pools[dom][s]))
			var obj rdf.Term
			if g.rng.Intn(3) == 0 {
				obj = rdf.NewLiteral(fmt.Sprintf("raw value %d", g.rng.Intn(1000)))
			} else {
				ran := class(g.rng.Intn(int(numClasses)))
				obj = rdf.NewIRI(dbpEntityIRI(g.pools[ran][g.rng.Intn(len(g.pools[ran]))]))
			}
			g.world.Dbp.Add(rdf.NewTriple(subj, rel, obj))
		}
		g.world.Report.NoiseRelations++
	}
}

func (g *generator) emitSameAs() {
	for c := class(0); c < numClasses; c++ {
		for _, name := range g.pools[c] {
			if g.rng.Float64() < g.spec.SameAsCoverage {
				g.world.Links.Add(yagoEntityIRI(name), dbpEntityIRI(name))
			}
		}
	}
	g.world.Report.SameAsLinks = g.world.Links.Len()
}

func (g *generator) buildTruth() {
	for _, f := range g.families {
		if f.split {
			for _, d := range f.dbpRels {
				g.world.Truth.addD2Y(d, f.yagoRel, false)
			}
		} else {
			d := f.dbpRels[0]
			g.world.Truth.addD2Y(d, f.yagoRel, true)
			g.world.Truth.addY2D(f.yagoRel, d, true)
		}
	}
}

func (g *generator) finishReport() {
	r := &g.world.Report
	r.Families = len(g.families)
	for _, f := range g.families {
		if f.confOf >= 0 {
			r.ConfounderFamilies++
		}
		if f.split {
			r.SpecializedFamilies++
		}
		if f.lit != litNone {
			r.LiteralFamilies++
		}
		r.YagoRelations = append(r.YagoRelations, f.yagoRel)
		r.DbpRelations = append(r.DbpRelations, f.dbpRels...)
	}
	sort.Strings(r.YagoRelations)
	// noise relations belong to the DBpedia alignment universe too:
	// SOFYA cannot know a priori that they are junk.
	seen := make(map[string]bool, len(r.DbpRelations))
	for _, iri := range r.DbpRelations {
		seen[iri] = true
	}
	for _, p := range g.world.Dbp.Relations() {
		iri := g.world.Dbp.Term(p).Value
		if !seen[iri] {
			seen[iri] = true
			r.DbpRelations = append(r.DbpRelations, iri)
		}
	}
	sort.Strings(r.DbpRelations)
	r.YagoFacts = g.world.Yago.Size()
	r.DbpFacts = g.world.Dbp.Size()
}

// reserveRel claims a relation IRI, disambiguating collisions with a
// deterministic _v2, _v3, ... suffix. It draws no randomness, so worlds
// whose derived names never collide generate byte-identically to the
// unguarded generator.
func (g *generator) reserveRel(iri string) string {
	if !g.usedRel[iri] {
		g.usedRel[iri] = true
		return iri
	}
	for i := 2; ; i++ {
		c := fmt.Sprintf("%s_v%d", iri, i)
		if !g.usedRel[c] {
			g.usedRel[c] = true
			return c
		}
	}
}

func underscored(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] == ' ' {
			b[i] = '_'
		}
	}
	return string(b)
}
