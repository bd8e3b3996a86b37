// Package candidates implements the candidate-generation stage that
// takes relation alignment from all-pairs to top-k. SOFYA aligns one
// source relation r against the relations of a target endpoint; naively
// every target relation is a candidate, which is O(|R'|) probing work
// per source relation and hopeless against a production property
// namespace (DBpedia's raw-infobox tail alone is thousands of
// relations). The Index built here answers "which k target relations
// could plausibly align with r" in time sub-linear in |R'|, blending
// two signals:
//
//   - a character-trigram inverted index over relation local names with
//     idf weighting: lexically similar names (birthPlace/placeOfBirth)
//     surface without scanning the inventory, because only the posting
//     lists of the query's own grams are touched;
//
//   - a minhash/LSH index over sampled (subject, object) signature
//     sets, pulled through the same prepared ORDER BY RAND() probe the
//     validator uses: extensionally similar relations surface even when
//     their names share nothing, because relations with overlapping
//     instances collide in LSH band buckets.
//
// Everything is deterministic: index layout depends only on the sorted
// relation inventory and the endpoint's seeded sampling; scores are
// accumulated in sorted-gram order so the inverted path is bitwise
// identical to the exact all-pairs scorer on the name side, and pooled
// candidates' signature scores are exact key-set Jaccards. The LSH
// band selection — which relations enter the scored pool — is the only
// approximation, and the experiments measure it as candidate recall
// against the exact all-pairs scorer.
package candidates

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"sofya/internal/endpoint"
	"sofya/internal/flight"
	"sofya/internal/sampling"
	"sofya/internal/sparql"
	"sofya/internal/strsim"
)

// Translator maps target-KB entity IRIs into the source KB's namespace.
// sampling.LinkView satisfies it.
type Translator interface {
	ToK(kPrime string) (string, bool)
}

// The index parameters, fixed so that every index over one inventory
// is built alike. Sidecars still store them and fingerprints hash them.
const (
	sampleSize            = 48     // facts sampled per relation for its instance signature
	sigHashes, sigBands   = 64, 32 // minhash functions, LSH bands
	sigRows               = sigHashes / sigBands
	gramN                 = 3          // n-gram size of the name index
	nameWeight, sigWeight = 0.65, 0.35 // blend of the two signals
	// maxGramFrac makes a gram a stop gram once its document frequency
	// exceeds this fraction of the inventory (floored at 32 relations).
	// Stop grams are dropped identically from the postings, the query
	// vector, and the exact scorer.
	maxGramFrac = 0.10
	sigSeed     = 1 // perturbs the minhash functions
)

// Options parameterize index construction. The zero value is usable.
type Options struct {
	// MaxPostings caps the inverted posting list of any single gram:
	// grams whose document frequency is below the stop-gram cutoff but
	// above this cap keep only their MaxPostings highest-weight
	// relations (ties broken by relation id). Unlike stop grams the
	// truncated grams still contribute to the per-relation vectors, so
	// the exact scorer is unaffected — truncation only narrows which
	// relations the inverted probe can reach, and experiment E9
	// measures that recall cost. 0 leaves posting lists uncapped.
	MaxPostings int

	// Parallelism bounds the concurrent per-relation sampling probes of
	// the build pass (0 = GOMAXPROCS, 1 = serial). Sample streams are
	// seeded per query text, so the built index is byte-identical at
	// every setting; Parallelism is a build-shape knob, not an index
	// parameter, and is excluded from the fingerprint.
	Parallelism int
}

func (o Options) normalized() Options {
	o.MaxPostings = max(o.MaxPostings, 0)
	return o
}

// Index is the immutable candidate-generation index over one target
// endpoint's relation inventory. Build it once, probe it from any
// number of goroutines through Prober values.
type Index struct {
	opt Options

	// rels is the sorted target relation inventory; relation ids are
	// positions in this slice, so id order is IRI order.
	rels []string

	name nameIndex
	sig  sigIndex

	// fp is Fingerprint(rels, opt), computed once when the index is
	// built or decoded.
	fp uint64

	// Posting-truncation accounting (Options.MaxPostings): how many
	// grams lost entries and how many posting entries were dropped.
	truncGrams, truncPostings int
}

// Relations returns the indexed inventory (sorted; do not mutate).
func (ix *Index) Relations() []string { return ix.rels }

// Len returns the number of indexed relations.
func (ix *Index) Len() int { return len(ix.rels) }

// Options returns the (normalized) options the index was built with.
// Parallelism is a build-shape knob, not an index parameter, and is
// reported as zero.
func (ix *Index) Options() Options { return ix.opt }

// Postings returns how many inverted posting entries the index holds
// (after any Options.MaxPostings truncation).
func (ix *Index) Postings() int { return len(ix.name.postRel) }

// TruncationStats reports the posting-truncation accounting of the
// build: how many grams had their posting list capped by
// Options.MaxPostings and how many posting entries were dropped in
// total. Both are zero for uncapped indexes.
func (ix *Index) TruncationStats() (grams, dropped int) {
	return ix.truncGrams, ix.truncPostings
}

// Build is BuildCtx without cancellation.
func Build(target endpoint.Endpoint, rels []string, links Translator, opt Options) (*Index, error) {
	return BuildCtx(context.Background(), target, rels, links, opt)
}

// BuildCtx constructs the index over rels, sampling each relation's
// instance signature from the target endpoint. Entity terms are
// translated into the source KB's namespace through links so that
// signatures are comparable with source-side probes; facts whose
// subject has no sameAs link contribute no subject key, mirroring the
// validator's link filtering. Building issues one prepared sampling
// query per relation, fanned out over Options.Parallelism workers with
// index-ordered collection: each relation's sample stream is seeded by
// its own query text, so the built index is byte-identical to the
// serial build at every parallelism.
//
// Cancelling ctx aborts the sampling pass; the ctx error is returned.
// Failed relation probes do not abort the pass: every relation is
// still attempted, and all failures are joined into one deterministic
// error, ordered by relation IRI (lowest first), so operators see the
// full blast radius of a misbehaving endpoint in a single report.
func BuildCtx(ctx context.Context, target endpoint.Endpoint, rels []string, links Translator, opt Options) (*Index, error) {
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The index keeps the options that describe its content, not the
	// build's shape (see Options.Parallelism).
	ix := &Index{opt: Options{MaxPostings: opt.normalized().MaxPostings}, rels: append([]string(nil), rels...)}
	sort.Strings(ix.rels)
	ix.fp = Fingerprint(ix.rels, ix.opt)
	ix.buildNameIndex()

	probe, err := target.Prepare(sampling.TmplSample, "r", "n")
	if err != nil {
		return nil, fmt.Errorf("candidates: preparing sample probe against %s: %w", target.Name(), err)
	}
	sets := make([][]uint64, len(ix.rels))
	errs := make([]error, len(ix.rels))
	// A relation's failure is recorded, not returned: it must not cancel
	// the others, so Each only ever stops on ctx.
	err = flight.Each(ctx, workers, len(ix.rels), func(ctx context.Context, i int) error {
		sets[i], errs[i] = appendSampleKeys(ctx, make([]uint64, 0, 2*sampleSize), probe, ix.rels[i], links)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("candidates: build against %s aborted: %w", target.Name(), err)
	}
	var fails []error
	for i, err := range errs {
		if err != nil {
			fails = append(fails, fmt.Errorf("<%s>: %w", ix.rels[i], err))
		}
	}
	if len(fails) > 0 {
		return nil, fmt.Errorf("candidates: sampling %d of %d relations against %s failed: %w",
			len(fails), len(ix.rels), target.Name(), errors.Join(fails...))
	}
	ix.buildSigIndex(sets)
	return ix, nil
}

// appendSampleKeys samples up to sampleSize facts of rel and appends
// their signature keys: one key per linked subject, one per linked (or
// literal) object. Keys are deduplicated, sorted.
func appendSampleKeys(ctx context.Context, keys []uint64, probe endpoint.PreparedQuery, rel string, links Translator) ([]uint64, error) {
	res, err := probe.SelectCtx(ctx, sparql.IRIArg(rel), sparql.IntArg(sampleSize))
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		x, y := row[0], row[1]
		if x.IsIRI() {
			if k, ok := links.ToK(x.Value); ok {
				keys = append(keys, subjectKey(k))
			}
		}
		switch {
		case y.IsLiteral():
			keys = append(keys, literalKey(y.Value))
		case y.IsIRI():
			if k, ok := links.ToK(y.Value); ok {
				keys = append(keys, objectKey(k))
			}
		}
	}
	return dedupSorted(keys), nil
}

// identityTranslator is the Translator for source-side sampling, where
// terms are already in the source namespace.
type identityTranslator struct{}

func (identityTranslator) ToK(s string) (string, bool) { return s, true }

// Relations lists the distinct relation IRIs of an endpoint, sorted —
// the endpoint-agnostic inventory query (it needs no KB access, only
// SPARQL).
func Relations(ep endpoint.Endpoint) ([]string, error) {
	res, err := ep.SelectCtx(context.Background(), "SELECT DISTINCT ?p WHERE { ?s ?p ?o }")
	if err != nil {
		return nil, fmt.Errorf("candidates: relation inventory of %s: %w", ep.Name(), err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		if t := row[0]; t.IsIRI() {
			out = append(out, t.Value)
		}
	}
	sort.Strings(out)
	return out, nil
}

// LocalName extracts the name part of a relation IRI: everything after
// the last '#' or '/'.
func LocalName(iri string) string {
	if i := strings.LastIndexAny(iri, "#/"); i >= 0 {
		return iri[i+1:]
	}
	return iri
}

// Candidate is one scored target relation.
type Candidate struct {
	Rel   string
	Score float64
	// Name and Sig are the blended components: trigram name cosine and
	// instance-signature similarity.
	Name, Sig float64
}

// Recall returns |approx ∩ exact| / |exact| over the Rel sets — the
// fraction of the exact top-k the pruned candidate set retains. An
// empty exact set has recall 1.
func Recall(approx, exact []Candidate) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[string]bool, len(approx))
	for _, c := range approx {
		in[c.Rel] = true
	}
	hit := 0
	for _, c := range exact {
		if in[c.Rel] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// ScoreRecall weighs the retained exact top-k entries by their scores:
// the fraction of the exact candidates' score mass the pruned set
// keeps. Pruning loses low-score tail candidates first, so this is the
// measure of how much alignment-relevant signal survives; an exact set
// with zero mass (or no entries) has score recall 1.
func ScoreRecall(approx, exact []Candidate) float64 {
	total := 0.0
	for _, c := range exact {
		total += c.Score
	}
	if total == 0 {
		return 1
	}
	in := make(map[string]bool, len(approx))
	for _, c := range approx {
		in[c.Rel] = true
	}
	kept := 0.0
	for _, c := range exact {
		if in[c.Rel] {
			kept += c.Score
		}
	}
	return kept / total
}

// profileOf builds the trigram profile of a relation's lowercased local
// name. Index profiles are built once per relation (not memoized
// globally: a 10⁵-relation inventory would thrash the strsim cache).
func profileOf(iri string) *strsim.Profile {
	return strsim.NewProfile(strings.ToLower(LocalName(iri)), gramN)
}

// dedupSorted sorts keys and removes duplicates in place.
func dedupSorted(keys []uint64) []uint64 {
	slices.Sort(keys)
	return slices.Compact(keys)
}

var _ Translator = sampling.LinkView{}
