// Package synth generates the synthetic evaluation substrate: a pair of
// knowledge bases shaped like YAGO2 (92 relations) and DBpedia (1313
// relations) derived from one ground-truth "world", together with the
// owl:sameAs link set and the gold-standard relation alignments.
//
// The paper evaluates on real YAGO2/DBpedia SPARQL endpoints, which are
// unavailable offline and — more importantly — have no machine-readable
// gold standard for exact precision/recall accounting. The generator
// plants, with known ground truth, exactly the phenomena that drive the
// paper's Table 1:
//
//   - equivalent relation pairs under different names
//     (yago:wasBornIn ≡ dbp:birthPlace);
//   - strict subsumptions from granularity mismatch: one broad YAGO
//     relation vs several DBpedia specializations
//     (dbp:composerOf ⊂ yago:created, §2.2 example 1);
//   - correlated-but-unrelated confounder pairs
//     (hasDirector/hasProducer vs directedBy, §2.2 example 2) that fool
//     sample-based confidence measures;
//   - per-relation incompleteness in both KBs (CWA counter-example
//     noise) and a small cross-KB value-disagreement rate;
//   - incomplete sameAs links;
//   - entity–literal relations with heterogeneous formatting
//     (underscored YAGO labels vs spaced DBpedia labels, xsd:gYear vs
//     xsd:date) exercising the string-similarity matcher;
//   - a long tail of DBpedia-only "raw infobox" noise properties, which
//     is how the real DBpedia property namespace reaches 1313 relations.
package synth

import "fmt"

// Spec parameterizes world generation. Use DefaultSpec or TinySpec and
// tweak fields; the zero value is not usable.
type Spec struct {
	// Seed drives every random choice; equal specs generate equal worlds.
	Seed int64

	// Persons, Works, Places, Orgs size the entity pools.
	Persons int
	Works   int
	Places  int
	Orgs    int

	// YagoRelations is the number of YAGO relations (the paper: 92).
	// Each relation family contributes exactly one.
	YagoRelations int
	// DbpRelations is the total number of DBpedia relations (the paper:
	// 1313); the gap left by family-derived relations is filled with
	// long-tail noise properties.
	DbpRelations int

	// SameAsCoverage is the fraction of shared entities that receive a
	// sameAs link.
	SameAsCoverage float64

	// YagoCoverage and DbpCoverage bound the per-relation fact-retention
	// probability in each KB (uniform in [min,max]).
	YagoCoverage [2]float64
	DbpCoverage  [2]float64

	// ValueNoise is the probability that a fact's object disagrees
	// across the two KBs (a different city, a misparsed date, ...).
	ValueNoise float64

	// GranularityMismatch bounds the per-family rate at which the two
	// KBs record different-but-related objects for the same fact (city
	// vs country for birthPlace, work vs series, ...). It applies only
	// to plain-equivalence entity families: confounder families and
	// their targets keep clean object identity so that UBS
	// contradictions stay trustworthy, mirroring the PCA's
	// per-subject-completeness model.
	GranularityMismatch [2]float64
	// SpecGranularityMismatch is the (smaller) mismatch range for
	// specialization families: enough to blur the baselines' threshold
	// separation, small enough that sibling-pair overlap rows stay
	// dominated by genuine multi-subtype subjects rather than noise.
	SpecGranularityMismatch [2]float64

	// ConfounderFraction is the fraction of entity-entity families that
	// get a correlated sibling family (director/producer style).
	ConfounderFraction float64
	// ConfounderCorrelation bounds the correlation of confounder pairs:
	// the probability that the sibling shares the object.
	ConfounderCorrelation [2]float64

	// SpecializationFraction is the fraction of families whose DBpedia
	// side splits into 2..MaxSpecializations specialized relations
	// instead of one equivalent.
	SpecializationFraction float64
	MaxSpecializations     int

	// LiteralFraction is the fraction of families whose range is a
	// literal (labels, dates, numbers).
	LiteralFraction float64

	// BaseFacts scales per-family fact counts (median family size).
	BaseFacts int

	// NoiseFactsMax caps the facts of each long-tail noise property.
	NoiseFactsMax int

	// VariantFraction is the probability that a clean DBpedia relation
	// (a specialization, a confounder, or a confounder target) gains
	// partial near-duplicate "raw infobox" variants — DBpedia-only
	// relations covering a subject subset with imperfect object
	// agreement. Variants are gold-negative: they are what makes
	// small-sample confidence measures overaccept, as in real DBpedia
	// (dbp:birthPlace vs dbp:placeOfBirth vs dbp:origin).
	VariantFraction float64
	// MaxVariantsPerRelation caps how many variants one relation grows.
	MaxVariantsPerRelation int
	// VariantAgreement bounds a variant's per-fact object agreement
	// with its source relation.
	VariantAgreement [2]float64
	// VariantSubjectCoverage bounds the fraction of source subjects a
	// variant covers.
	VariantSubjectCoverage [2]float64
}

// DefaultSpec reproduces the paper's scale: 92 YAGO relations, 1313
// DBpedia relations.
func DefaultSpec() Spec {
	return Spec{
		Seed:                    2016,
		Persons:                 2600,
		Works:                   2000,
		Places:                  420,
		Orgs:                    380,
		YagoRelations:           92,
		DbpRelations:            1313,
		SameAsCoverage:          0.78,
		YagoCoverage:            [2]float64{0.62, 0.95},
		DbpCoverage:             [2]float64{0.60, 0.92},
		ValueNoise:              0.015,
		GranularityMismatch:     [2]float64{0.0, 0.45},
		SpecGranularityMismatch: [2]float64{0.03, 0.15},
		ConfounderFraction:      0.40,
		ConfounderCorrelation:   [2]float64{0.60, 0.95},
		SpecializationFraction:  0.38,
		MaxSpecializations:      4,
		LiteralFraction:         0.18,
		BaseFacts:               130,
		NoiseFactsMax:           18,
		VariantFraction:         0.9,
		MaxVariantsPerRelation:  3,
		VariantAgreement:        [2]float64{0.55, 0.85},
		VariantSubjectCoverage:  [2]float64{0.5, 0.85},
	}
}

// ScaleSpec sizes a candidate-pruning stress world: n target (DBpedia)
// relations — overwhelmingly long-tail noise properties, which is what
// a production property namespace looks like — against a few hundred
// source (YAGO) relations. Fact counts per relation stay small so a
// 10⁵–10⁶-relation world generates in seconds and fits in memory; the
// point of these worlds is relation-count asymptotics (candidate
// generation must be sub-linear in n), not per-relation statistics.
// Literal and confounder machinery is disabled: both are per-relation
// phenomena already covered by the paper-scale specs, and disabling
// them keeps generation O(n).
func ScaleSpec(n int) Spec {
	s := DefaultSpec()
	s.Seed = 4242
	s.Persons, s.Works, s.Places, s.Orgs = 1500, 1000, 400, 300
	s.YagoRelations = 200
	if n < 2*s.YagoRelations {
		s.YagoRelations = n / 2
	}
	s.DbpRelations = n
	s.LiteralFraction = 0
	s.ConfounderFraction = 0
	s.SpecializationFraction = 0.25
	s.MaxSpecializations = 3
	s.BaseFacts = 24
	s.NoiseFactsMax = 5
	s.VariantFraction = 0.3
	s.MaxVariantsPerRelation = 1
	return s
}

// TinySpec is a fast small world for unit tests: 14 YAGO relations, 48
// DBpedia relations, a few hundred entities.
func TinySpec() Spec {
	s := DefaultSpec()
	s.Persons, s.Works, s.Places, s.Orgs = 260, 200, 60, 40
	s.YagoRelations = 14
	s.DbpRelations = 48
	s.BaseFacts = 60
	// tiny relations leave variants statistically unprunable (UBS needs
	// a couple of disagreement rows); keep the tiny world's variant tail
	// thin so unit tests probe the mechanism, not sampling starvation.
	s.VariantFraction = 0.7
	s.MaxVariantsPerRelation = 1
	return s
}

// SpecNamed resolves the world-size name every command's -spec or
// -synthetic flag takes: "tiny" or "paper". Any other name is an error
// that lists the two — a misspelt one must not run as a default.
func SpecNamed(name string) (Spec, error) {
	switch name {
	case "tiny":
		return TinySpec(), nil
	case "paper":
		return DefaultSpec(), nil
	}
	return Spec{}, fmt.Errorf("unknown world %q: want tiny or paper", name)
}
