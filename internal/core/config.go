// Package core implements SOFYA's on-the-fly relation aligner — the
// paper's primary contribution. Given a relation r of a source KB K
// (e.g. arriving in a query) and SPARQL-endpoint access to a target KB
// K', the aligner:
//
//  1. discovers candidate relations r' of K' by sampling r-facts,
//     translating the pairs through sameAs links, and collecting the
//     predicates that connect the translated pairs in K';
//  2. validates each candidate rule r'(x,y) ⇒ r(x,y) with Simple Sample
//     Extraction and the cwaconf/pcaconf measures (§2.1–2.2);
//  3. optionally applies Unbiased Sample Extraction (§2.2): targeted
//     contradiction queries over sibling-candidate pairs that (a) prune
//     correlated-but-unrelated candidates (hasProducer ⇒ directedBy)
//     and (b) refute wrong reverse implications, demoting equivalences
//     to strict subsumptions (creatorOf ⇔ composerOf);
//  4. reports subsumptions with confidence scores, and equivalences via
//     the double-subsumption test.
//
// The aligner schedules the stages and makes the decisions; a
// sampling.Validator prepares and sends every probe over endpoint.Endpoint
// values: a handful of SPARQL queries per aligned relation, never a
// dataset download.
package core

import (
	"runtime"

	"sofya/internal/ilp"
	"sofya/internal/strsim"
)

// Config controls the aligner. DefaultConfig and UBSConfig give the two
// configurations evaluated in the paper's Table 1.
type Config struct {
	// SampleSize is the number of sampled subject entities per
	// candidate validation (the paper evaluates 10), and the number of
	// sampled r-facts used for candidate discovery.
	SampleSize int
	// Measure selects pcaconf or cwaconf.
	Measure ilp.Measure
	// Threshold is the acceptance threshold τ on the selected measure.
	Threshold float64
	// MinSupport is the minimum number of confirming pairs; rules with
	// less support are rejected regardless of confidence (a confidence
	// of 1.0 from a single pair is not evidence).
	MinSupport int

	// Parallelism bounds the aligner's total concurrent endpoint work:
	// every endpoint-bound stage task (discovery probes, candidate
	// validations, UBS sibling checks, equivalence tests) across all
	// relations an AlignRelations batch has in flight passes through
	// one shared admission gate of this capacity. What it bounds is
	// stage tasks: a task is one item of its stage, or — against
	// endpoints that group probes — a range of them whose probes of a
	// kind are one request per shard (runRanges), so an endpoint never
	// has more than Parallelism requests per shard in flight from one
	// aligner. 0 or negative selects runtime.GOMAXPROCS(0); 1 forces
	// serial endpoint access. For deterministic endpoints (fixed Local
	// seeds), results are identical at every setting.
	Parallelism int

	// CandidateTopK enables candidate-generation pruning: before
	// discovery, the aligner consults a lazily built
	// candidates.Index over the target inventory and restricts each
	// relation's candidate set to the index's top-k (internal/candidates:
	// trigram name index + minhash/LSH instance signatures). 0 disables
	// pruning — exact mode, where every co-occurring predicate stays a
	// candidate and output is byte-identical to builds without the
	// feature. The index costs one sampling query per target relation,
	// paid once per aligner on first use.
	CandidateTopK int
	// CandidateMaxPostings caps the candidate index's per-gram posting
	// lists (candidates.Options.MaxPostings): stem-heavy namespaces
	// concentrate document frequency just below the stop-gram cutoff,
	// and the cap bounds the probe's posting walk at a measured recall
	// cost (experiment E9). 0 leaves posting lists uncapped.
	CandidateMaxPostings int
	// CandidateIndexPath names a candidate-index sidecar
	// (candidates.WriteIndexFile, written by kbgen -candidates). When
	// set, the aligner restores the index from it instead of sampling
	// the target — if its fingerprint matches the target inventory and
	// options; a missing, corrupt or stale sidecar falls back to a
	// fresh build. Empty always builds.
	CandidateIndexPath string
	// CandidateIndexCache, when non-nil, shares candidate indexes
	// across aligners: all aligners handed the same cache and pointed
	// at the same target build (or load) the index once, singleflighted.
	// nil gives the aligner a private cache — same code path, no
	// sharing.
	CandidateIndexCache *IndexCache

	// UseUBS enables Unbiased Sample Extraction.
	UseUBS bool
	// UBSBodySiblings enables contradiction search over sibling
	// candidates in K' (strategy for "overlappings that are not
	// subsumptions", e.g. hasProducer vs hasDirector).
	UBSBodySiblings bool
	// UBSHeadSiblings enables contradiction search over sibling
	// relations of r in K (the mirrored strategy that refutes
	// body-broader-than-head rules such as created ⇒ composerOf, the
	// paper's "subsumptions that are not equivalences" case).
	UBSHeadSiblings bool
	// MinContradictions is how many UBS counter-examples prune a rule;
	// the paper: "we need only one case".
	MinContradictions int
	// UBSContradictionRatio additionally requires contradictions to be
	// at least this fraction of the UBS rows inspected for the rule.
	// The overlap query adversely selects disagreement, so a couple of
	// noisy facts in an otherwise perfect relation always surface; the
	// ratio keeps them from killing true rules while genuinely wrong
	// rules contradict on most rows. 0 disables the ratio test.
	UBSContradictionRatio float64

	// CheckEquivalence additionally validates the reverse rule r ⇒ r'
	// for accepted candidates and sets Alignment.Equivalent.
	CheckEquivalence bool

	// Matcher aligns literal objects; nil disables entity–literal
	// alignment.
	Matcher *strsim.LiteralMatcher

	// Trace, when non-nil, receives printf-style diagnostics about
	// discovery, validation and UBS pruning decisions.
	Trace func(format string, args ...any)
}

const (
	// maxCandidates caps how many discovered candidates are validated,
	// keeping the most frequently co-occurring ones.
	maxCandidates = 16
	// ubsMaxSiblings caps sibling relations tried per candidate.
	ubsMaxSiblings = 4
	// ubsSampleSize is the number of overlap subjects examined per
	// sibling pair, and of sampled pairs a candidate's head siblings are
	// found from.
	ubsSampleSize = 14
)

// DefaultConfig is the baseline of Table 1: pcaconf with τ > 0.3 over
// simple samples of 10 subjects.
func DefaultConfig() Config {
	return Config{
		SampleSize: 10,
		Measure:    ilp.PCA,
		Threshold:  0.3,
		MinSupport: 1,
		Matcher:    strsim.DefaultMatcher(),
	}
}

// CWAConfig is the cwaconf baseline of Table 1 (τ > 0.1).
func CWAConfig() Config {
	c := DefaultConfig()
	c.Measure = ilp.CWA
	c.Threshold = 0.1
	return c
}

// UBSConfig is the paper's UBS method: pcaconf over simple samples plus
// contradiction pruning, which lets the acceptance threshold drop to
// near zero (the pruning, not the threshold, carries precision).
func UBSConfig() Config {
	c := DefaultConfig()
	c.UseUBS = true
	c.Threshold = 0.05
	c.MinSupport = 2
	c.UBSBodySiblings = true
	c.UBSHeadSiblings = true
	// Two independent contradictions prune a rule, and they must cover
	// at least 20% of the inspected overlap rows. The paper prunes on a
	// single case; the stricter gate absorbs residual cross-KB value
	// noise (which the overlap query adversely selects) without letting
	// real confounders through. Ablated in experiment E6.
	c.MinContradictions = 2
	c.UBSContradictionRatio = 0.3
	c.CheckEquivalence = true
	return c
}

// normalized fills derived defaults.
func (c Config) normalized() Config {
	if c.SampleSize <= 0 {
		c.SampleSize = 10
	}
	if c.MinContradictions <= 0 {
		c.MinContradictions = 1
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}
