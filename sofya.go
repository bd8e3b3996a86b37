// Package sofya is the public API of this repository: a from-scratch Go
// implementation of SOFYA — Semantic On-the-fly Relation Alignment
// (Koutraki, Preda, Vodislav; EDBT 2016) — together with every substrate
// it needs: an RDF data model, an indexed triple store, a SPARQL-subset
// engine, access-restricted and HTTP SPARQL endpoints, a sameAs link
// registry, string-similarity literal matching, the cwaconf/pcaconf ILP
// confidence measures, the Simple and Unbiased samplers, a synthetic
// YAGO/DBpedia evaluation world with gold-standard alignments, and a
// query rewriter that puts discovered alignments to work at query time.
//
// Quick start:
//
//	world := sofya.Generate(sofya.TinyWorldSpec())
//	k := sofya.NewLocalEndpoint(world.Yago, 1)       // source KB K
//	kp := sofya.NewLocalEndpoint(world.Dbp, 2)       // target KB K'
//	links := sofya.LinkView{Links: world.Links, KIsA: true}
//	aligner := sofya.NewAligner(k, kp, links, sofya.UBSConfig())
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	als, err := aligner.AlignRelationContext(ctx, "http://yago-knowledge.org/resource/wasBornIn")
//
// The returned alignments carry the paper's confidence measures, UBS
// contradiction counts, and the equivalence verdict from the
// double-subsumption test. The caller's context reaches every probe:
// past the deadline the alignment fails with context.DeadlineExceeded.
//
// # Batch alignment
//
// Aligning many relations is a concurrent pipeline. Decorate each
// endpoint with a caching layer — it shares one execution among
// identical in-flight queries and memoizes the results under an LRU
// bound — set Config.Parallelism, and call AlignRelationsContext:
//
//	cfg := sofya.UBSConfig()
//	cfg.Parallelism = 8 // 0 = GOMAXPROCS
//	qk := sofya.NewCachingEndpoint(k, 0)
//	qkp := sofya.NewCachingEndpoint(kp, 0)
//	aligner := sofya.NewAligner(qk, qkp, links, cfg)
//	results, err := aligner.AlignRelationsContext(ctx, world.Report.YagoRelations)
//
// Relations align concurrently while sharing deduplicated endpoint
// traffic, and — because a Local endpoint answers a given query
// identically regardless of execution order — the batch output is
// byte-identical to the sequential run for fixed endpoint seeds; the
// first relation to fail cancels the others' probes. Every endpoint call
// takes a context (SelectCtx / AskCtx / Stream).
//
// # Prepared queries
//
// Every endpoint compiles query templates for repeated execution:
//
//	pq, _ := k.Prepare("SELECT ?p WHERE { $x ?p $y }", "x", "y")
//	res, _ := pq.SelectCtx(ctx, sofya.IRIArg(a), sofya.IRIArg(b))
//
// Against a local endpoint a prepared execution binds arguments into
// the compiled plan's registers directly — no parsing, no planning, no
// text interpolation — and runs on the KB's CSR indexes. The aligner's
// own probe stages run entirely on prepared templates; see
// ARCHITECTURE.md for the parse → compile → exec pipeline and the KB's
// log → index lifecycle.
//
// Prepared queries also stream: Stream returns rows on demand, and
// closing the stream early aborts the engine's join mid-flight, so
// LIMIT-heavy probes never pay for rows they discard:
//
//	rows, _ := pq.Stream(ctx, sofya.IRIArg(a), sofya.IRIArg(b))
//	defer rows.Close()
//	for rows.Next() { use(rows.Row()) }
//
// A drained stream is byte-identical to the equivalent SelectCtx — RAND()
// ordering included — and the caching/coalescing decorators stay
// streaming-aware (drained prefixes are cached; coalesced waiters
// replay one shared stream).
package sofya

import (
	"io"

	"sofya/internal/cluster"
	"sofya/internal/core"
	"sofya/internal/endpoint"
	"sofya/internal/ilp"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/rewrite"
	"sofya/internal/sameas"
	"sofya/internal/sampling"
	"sofya/internal/shard"
	"sofya/internal/sparql"
	"sofya/internal/strsim"
	"sofya/internal/synth"
)

// Data-model types.
type (
	// Term is an RDF term: IRI, literal, or blank node.
	Term = rdf.Term
	// Triple is one RDF statement.
	Triple = rdf.Triple
	// KB is an in-memory indexed triple store.
	KB = kb.KB
)

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return rdf.NewIRI(iri) }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return rdf.NewLiteral(lex) }

// NewTypedLiteral returns a typed literal term.
func NewTypedLiteral(lex, datatype string) Term { return rdf.NewTypedLiteral(lex, datatype) }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term { return rdf.NewLangLiteral(lex, lang) }

// Common XSD datatype IRIs.
const (
	XSDDate    = rdf.XSDDate
	XSDGYear   = rdf.XSDGYear
	XSDInteger = rdf.XSDInteger
)

// NewKB returns an empty knowledge base with the given name. Loading
// appends facts to a log; the first read after a mutation (or creating
// a local endpoint over the KB, or calling KB.Freeze) indexes the log
// into flat CSR postings with O(1) per-relation statistics, and every
// read serves from them.
func NewKB(name string) *KB { return kb.New(name) }

// LoadKB reads N-Triples into a new KB.
func LoadKB(name string, r io.Reader) (*KB, error) { return kb.Load(name, r) }

// LoadKBFile reads an N-Triples file into a new KB.
func LoadKBFile(name, path string) (*KB, error) { return kb.LoadFile(name, path) }

// OpenKBSnapshot memory-maps a binary snapshot written by
// KB.WriteSnapshot (or cmd/kbgen -snapshot) and serves reads directly
// from the mapped arrays: restart without re-parsing or re-indexing.
// Every read — and every endpoint built over the KB — is byte-identical
// to the KB that wrote the snapshot. The KB is read-only. See
// ARCHITECTURE.md ("Snapshots") for the format.
func OpenKBSnapshot(path string) (*KB, error) { return kb.OpenSnapshot(path) }

// ReadKBSnapshot decodes a snapshot from r onto the heap — the
// portable twin of OpenKBSnapshot for non-file sources.
func ReadKBSnapshot(r io.Reader) (*KB, error) { return kb.ReadSnapshot(r) }

// Endpoint types: SOFYA reaches KBs only through SPARQL endpoints.
type (
	// Endpoint is a queryable SPARQL service.
	Endpoint = endpoint.Endpoint
	// LocalEndpoint serves an in-process KB, optionally under a Quota.
	LocalEndpoint = endpoint.Local
	// Quota models public-endpoint access restrictions.
	Quota = endpoint.Quota
	// EndpointStats counts endpoint usage.
	EndpointStats = endpoint.Stats
	// SPARQLServer exposes a local endpoint over the SPARQL HTTP
	// protocol; SPARQLClient consumes one.
	SPARQLServer = endpoint.Server
	SPARQLClient = endpoint.Client
	// CachingEndpoint shares one execution among identical in-flight
	// queries and memoizes successful results under an LRU bound.
	CachingEndpoint = endpoint.Caching
	// CoalescingEndpoint is CachingEndpoint, under the name of the
	// in-flight sharing it provides.
	CoalescingEndpoint = endpoint.Coalescing
	// EndpointCacheStats counts a CachingEndpoint's hits and misses.
	EndpointCacheStats = endpoint.CacheStats
	// PreparedQuery is a query template bound to an endpoint: compile
	// once, execute per call with positional arguments. Local endpoints
	// skip parsing, planning and interpolation; remote ones fall back
	// to canonical text. Results are byte-identical to the text path.
	PreparedQuery = endpoint.PreparedQuery
	// Rows is a streamed SELECT result: rows arrive on demand through
	// PreparedQuery.Stream, and closing early aborts the remaining
	// work on endpoints that can (a drained stream is byte-identical
	// to the equivalent SelectCtx).
	Rows = endpoint.Rows
	// QueryArg is one bound argument of a prepared query.
	QueryArg = sparql.Arg
)

// TermArg binds an RDF term to a prepared-query parameter.
func TermArg(t Term) QueryArg { return sparql.TermArg(t) }

// IRIArg binds an IRI to a prepared-query parameter.
func IRIArg(iri string) QueryArg { return sparql.IRIArg(iri) }

// IntArg binds an integer to a prepared LIMIT parameter.
func IntArg(n int) QueryArg { return sparql.IntArg(n) }

// NewLocalEndpoint builds an unrestricted endpoint over k with a
// deterministic RAND() seed.
func NewLocalEndpoint(k *KB, seed int64) *LocalEndpoint { return endpoint.NewLocal(k, seed) }

// NewRestrictedEndpoint builds an endpoint with an access quota.
func NewRestrictedEndpoint(k *KB, seed int64, q Quota) *LocalEndpoint {
	return endpoint.NewLocalRestricted(k, seed, q)
}

// NewSPARQLServer wraps a local endpoint for HTTP serving.
func NewSPARQLServer(local *LocalEndpoint) *SPARQLServer { return endpoint.NewServer(local) }

// ShardedEndpoint federates a subject-hash-partitioned KB behind one
// endpoint: k Local shards answer every query class the aligner issues
// byte-identically to an unsharded endpoint (routing for single-subject
// probes, subject-ordered k-way stream merging for star queries, ORDER
// BY RAND() reassembly for sampling probes). See internal/shard.
type ShardedEndpoint = shard.Group

// NewShardedEndpoint partitions k into n subject-hash shards
// (kb.Partition) served by Local endpoints with the given RAND() seed,
// federated behind a merging group — the drop-in scale-out replacement
// for NewLocalEndpoint.
func NewShardedEndpoint(k *KB, n int, seed int64) *ShardedEndpoint {
	return shard.Partitioned(k, n, seed)
}

// NewShardedEndpointRestricted is NewShardedEndpoint under an access
// quota: the row cap is enforced once on the merged answer (matching
// the unsharded endpoint's contract), while the query budget applies
// per shard — a fanned-out probe consumes one query on every shard.
func NewShardedEndpointRestricted(k *KB, n int, seed int64, q Quota) *ShardedEndpoint {
	return shard.PartitionedRestricted(k, n, seed, q)
}

// NewShardedEndpointFromSnapshots restarts a sharded endpoint group
// from the per-shard snapshot files cmd/kbgen -snapshot -shards writes:
// each shard is memory-mapped (no parsing, no re-indexing, planner
// statistics embedded) and the group answers byte-identically to the
// endpoint that wrote the shards. Paths may arrive in any order; the
// partition order is recovered from each shard's recorded name.
func NewShardedEndpointFromSnapshots(seed int64, paths ...string) (*ShardedEndpoint, error) {
	return shard.GroupFromSnapshots(seed, paths)
}

// NewSPARQLClient builds an Endpoint speaking the SPARQL HTTP protocol.
func NewSPARQLClient(name, baseURL string) *SPARQLClient {
	return endpoint.NewClient(name, baseURL, nil)
}

// Networked federation: a sharded endpoint whose shards live behind
// HTTP, each served by a replica set with health checks, failover and
// optional hedged reads. See internal/cluster and ARCHITECTURE.md
// ("Networked federation").
type (
	// ClusterEndpoint is a shard.Group whose shards are replica sets of
	// remote SPARQL endpoints. It answers byte-identically to the
	// unsharded Local over the same KB and seed.
	ClusterEndpoint = cluster.Group
	// ClusterOptions tunes replica health checking, failover and hedged
	// reads.
	ClusterOptions = cluster.Options
)

// NewClusterEndpoint federates remote shard replicas: shardURLs[i]
// lists the base URLs of the replicas serving shard i of an
// n-way subject-hash partition named name (as written by cmd/kbgen
// -shards or served by sparqld -shard-of). Close the returned group to
// stop its health probes.
func NewClusterEndpoint(name string, seed int64, shardURLs [][]string, opt ClusterOptions) (*ClusterEndpoint, error) {
	return cluster.FromURLs(name, seed, shardURLs, opt)
}

// NewCachingEndpoint decorates inner with a memo: identical in-flight
// queries from concurrent aligners share one probe, and successful
// results stay under an LRU bound (maxEntries <= 0 selects the default).
// It is the one decorator concurrent batch alignment needs.
func NewCachingEndpoint(inner Endpoint, maxEntries int) *CachingEndpoint {
	return endpoint.NewCaching(inner, maxEntries)
}

// NewCoalescingEndpoint returns inner itself when inner is already a
// CachingEndpoint, which shares in-flight queries. Otherwise it
// decorates inner so identical in-flight queries from concurrent
// aligners share one probe, and keeps no result once its callers leave.
func NewCoalescingEndpoint(inner Endpoint) *CoalescingEndpoint {
	return endpoint.NewCoalescing(inner)
}

// SameAs link types.
type (
	// Links is a bidirectional sameAs registry between two KBs.
	Links = sameas.Links
	// Translator converts entity IRIs between the two KBs.
	Translator = sampling.Translator
	// LinkView orients a Links as a Translator: KIsA selects which side
	// is the head-side KB.
	LinkView = sampling.LinkView
)

// NewLinks returns an empty sameAs link registry.
func NewLinks() *Links { return sameas.New() }

// Aligner types — the paper's contribution.
type (
	// Aligner performs on-the-fly relation alignment over endpoints.
	Aligner = core.Aligner
	// Config controls sampling, confidence measures, and UBS.
	Config = core.Config
	// Alignment is the verdict on one candidate rule r' ⇒ r.
	Alignment = core.Alignment
	// Rule is a subsumption hypothesis body(x,y) ⇒ head(x,y).
	Rule = ilp.Rule
	// Measure selects pcaconf or cwaconf.
	Measure = ilp.Measure
	// LiteralMatcher aligns literal objects across KBs.
	LiteralMatcher = strsim.LiteralMatcher
)

// Confidence measures (Equations 1 and 2 of the paper).
const (
	PCA = ilp.PCA
	CWA = ilp.CWA
)

// NewAligner builds an aligner: k is the source endpoint K (whose
// relation arrives in a query), kprime the target endpoint K', links
// the sameAs translator between them.
func NewAligner(k, kprime Endpoint, links Translator, cfg Config) *Aligner {
	return core.New(k, kprime, links, cfg)
}

// DefaultConfig is the pcaconf baseline of Table 1 (τ > 0.3, 10-subject
// samples).
func DefaultConfig() Config { return core.DefaultConfig() }

// CWAConfig is the cwaconf baseline of Table 1 (τ > 0.1).
func CWAConfig() Config { return core.CWAConfig() }

// UBSConfig is the paper's Unbiased Sample Extraction method.
func UBSConfig() Config { return core.UBSConfig() }

// AcceptedAlignments filters a result list down to accepted rules.
func AcceptedAlignments(all []Alignment) []Alignment { return core.Accepted(all) }

// DefaultLiteralMatcher matches literals with Jaro-Winkler ≥ 0.9 plus
// numeric and date value comparison.
func DefaultLiteralMatcher() *LiteralMatcher { return strsim.DefaultMatcher() }

// Query rewriting.
type (
	// Rewriter rewrites queries posed against K into queries for K'
	// using discovered alignments.
	Rewriter = rewrite.Rewriter
	// Mapping is one relation substitution.
	Mapping = rewrite.Mapping
	// Query is a parsed SPARQL query.
	Query = sparql.Query
)

// NewRewriter builds a rewriter; links translates entity constants
// (nil keeps them unchanged).
func NewRewriter(links Translator) *Rewriter { return rewrite.New(links) }

// ParseQuery parses a SPARQL query with the standard prefixes.
func ParseQuery(query string) (*Query, error) { return sparql.Parse(query) }

// Synthetic evaluation world.
type (
	// World is a generated YAGO/DBpedia pair with gold alignments.
	World = synth.World
	// WorldSpec parameterizes world generation.
	WorldSpec = synth.Spec
	// GroundTruth is the gold-standard alignment set.
	GroundTruth = synth.GroundTruth
	// TruthPair is one gold subsumption.
	TruthPair = synth.TruthPair
)

// Generate builds a synthetic world; generation is deterministic in the
// spec.
func Generate(spec WorldSpec) *World { return synth.Generate(spec) }

// PaperWorldSpec is the paper-scale world: 92 YAGO relations, 1313
// DBpedia relations.
func PaperWorldSpec() WorldSpec { return synth.DefaultSpec() }

// TinyWorldSpec is a small fast world for tests and demos.
func TinyWorldSpec() WorldSpec { return synth.TinySpec() }
