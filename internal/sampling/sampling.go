// Package sampling is the aligner's one probe layer: NewValidator
// prepares every probe template once, from one table, and a Validator's
// methods send every probe of an alignment — candidate discovery
// (Discover) and the two instance-sampling strategies of SOFYA §2.2:
//
//   - Simple Sample Extraction: a pseudo-random sample of subjects of a
//     candidate relation r_sub in K', restricted to facts whose subject
//     (and, for entity objects, object) carries a sameAs link into K;
//     the sampled facts are translated into K identifiers (the set
//     P^rsub_S) and all r-facts of the translated subjects are fetched
//     from K, as required by the PCA denominator.
//
//   - Unbiased Sample Extraction (UBS): a targeted search for subjects
//     x with a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2) over two sibling relations
//     a, b — exactly the contradiction pattern that exposes (i) wrong
//     equivalences (r(x,y1) ∧ r(x,y2) both hold in the other KB) and
//     (ii) wrong subsumptions (r(x,y1) holds but r(x,y2) does not).
//
// The samplers speak only SPARQL against endpoint.Endpoint values and
// translate entities through a Translator, so they run unchanged against
// in-process KBs and remote HTTP endpoints. Every probe leaves through
// one dispatch (send), which hands each answer's rows to its reader as
// they arrive. Each sampler takes a range of rules or sibling pairs at
// once (SimpleEvidenceEach, ContradictionsEach, HeadSiblings): the sample
// probes of the range go out as one group of streams, each read to its
// stopping point, and then every object fetch of the range as one group,
// read whole — against a remote KB a range costs two requests per shard,
// however many rules it holds; a group fails over whole at its open, and
// is the caller's error once cut after it; against an endpoint that does
// not group a range costs exactly the probes its rules would have cost
// one by one. Object fetches go through an ObjectMemo, one per
// alignment: an alignment asks each of its object questions once.
package sampling

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"sofya/internal/endpoint"
	"sofya/internal/flight"
	"sofya/internal/ilp"
	"sofya/internal/rdf"
	"sofya/internal/sameas"
	"sofya/internal/sparql"
	"sofya/internal/strsim"
)

// Query templates of the probes, prepared once per validator (the probe
// table), so the per-probe cost is argument binding — no query
// construction, parsing or planning. The object probe is shared by
// Simple Sample Extraction and the UBS check stage, and the alignment's
// ObjectMemo deduplicates the two stages against each other on every
// endpoint.
const (
	// TmplSample randomly samples facts of one relation.
	TmplSample = "SELECT ?x ?y WHERE { ?x $r ?y } ORDER BY RAND() LIMIT $n"
	// TmplObjects fetches every object of r(x, ·).
	TmplObjects = "SELECT ?y WHERE { $x $r ?y }"
	// TmplOverlap is the UBS contradiction pattern
	// a(x,y1) ∧ b(x,y2) ∧ ¬a(x,y2).
	TmplOverlap = `SELECT ?x ?y1 ?y2 WHERE {
  ?x $a ?y1 .
  ?x $b ?y2 .
  FILTER NOT EXISTS { ?x $a ?y2 }
} ORDER BY RAND() LIMIT $n`
	// tmplPredsBetween asks which predicates connect two entities: the
	// discovery entity probe on K', the head-sibling probe on K.
	tmplPredsBetween = "SELECT ?p WHERE { $x ?p $y }"
	// tmplLiteralAttrs scans an entity's literal attributes for the
	// discovery stage's literal matcher.
	tmplLiteralAttrs = "SELECT ?p ?v WHERE { $x ?p ?v . FILTER ISLITERAL(?v) }"
)

// probe is a row of the probe table.
type probe uint8

const (
	pSample probe = iota
	pObjects
	pOverlap
	pBetween
	pLiterals
	numProbes
)

// ProbeTemplate is one probe template: its source text and its class,
// the probe shape it stands for.
type ProbeTemplate struct {
	Source string
	// Class is one of "sample", "objects", "overlap", "between" and
	// "literals" — the names the benchmark's tracer reports probes by.
	Class string
}

// probes is the probe table: NewValidator prepares every row on K and on
// K', a literal scan on K' alone. A streamed probe is read to a stopping
// point of its reader's (a sample window, an overlap window); any other
// is drained, each answer a row or a few, read whole (send).
var probes = [numProbes]struct {
	ProbeTemplate
	params     []string
	kPrimeOnly bool
	streamed   bool
}{
	pSample:   {ProbeTemplate{TmplSample, "sample"}, []string{"r", "n"}, false, true},
	pObjects:  {ProbeTemplate{TmplObjects, "objects"}, []string{"x", "r"}, false, false},
	pOverlap:  {ProbeTemplate{TmplOverlap, "overlap"}, []string{"a", "b", "n"}, false, true},
	pBetween:  {ProbeTemplate{tmplPredsBetween, "between"}, []string{"x", "y"}, false, false},
	pLiterals: {ProbeTemplate{tmplLiteralAttrs, "literals"}, []string{"x"}, true, false},
}

// ProbeTemplates lists the templates of the probe table.
func ProbeTemplates() []ProbeTemplate {
	out := make([]ProbeTemplate, len(probes))
	for i, p := range probes {
		out[i] = p.ProbeTemplate
	}
	return out
}

// Translator converts entity IRIs between the two KBs' namespaces.
type Translator interface {
	// ToK maps a K'-entity IRI to its K equivalent.
	ToK(kPrime string) (string, bool)
	// FromK maps a K-entity IRI to its K' equivalent.
	FromK(k string) (string, bool)
}

// LinkView adapts a sameas.Links to a Translator. If KIsA, the link
// set's A side is the K (head-side) KB; otherwise B is.
type LinkView struct {
	Links *sameas.Links
	KIsA  bool
}

// ToK implements Translator.
func (v LinkView) ToK(kPrime string) (string, bool) {
	if v.KIsA {
		return v.Links.BtoA(kPrime)
	}
	return v.Links.AtoB(kPrime)
}

// FromK implements Translator.
func (v LinkView) FromK(k string) (string, bool) {
	if v.KIsA {
		return v.Links.AtoB(k)
	}
	return v.Links.BtoA(k)
}

// Validator runs discovery and sampling-based validation of candidate
// rules between a head-side endpoint K and a body-side endpoint KPrime.
// NewValidator builds one; its fields are what it was built from.
type Validator struct {
	// K is the endpoint of the source KB (rule heads r).
	K endpoint.Endpoint
	// KPrime is the endpoint of the target KB (rule bodies r_sub).
	KPrime endpoint.Endpoint
	// Links translates entities between the KBs.
	Links Translator
	// Matcher aligns literal objects; nil disables literal alignment.
	Matcher *strsim.LiteralMatcher

	// h is the prepared probe table, shared with Flip: h[0] on the K of
	// the validator NewValidator built, h[1] on its K'.
	h *[2][numProbes]endpoint.PreparedQuery
	// flipped marks a validator made by Flip: its K is the K' of the
	// validator it flips, which is what h and an ObjectMemo's keys name.
	flipped bool
}

// NewValidator returns the Validator between k and kprime, the probe
// table prepared on both.
func NewValidator(k, kprime endpoint.Endpoint, links Translator, matcher *strsim.LiteralMatcher) (*Validator, error) {
	h := new([2][numProbes]endpoint.PreparedQuery)
	for side, ep := range [2]endpoint.Endpoint{k, kprime} {
		for p, row := range probes {
			if side == 0 && row.kPrimeOnly {
				continue
			}
			pq, err := ep.Prepare(row.Source, row.params...)
			if err != nil {
				return nil, fmt.Errorf("sampling: preparing probe against %s: %w", ep.Name(), err)
			}
			h[side][p] = pq
		}
	}
	return &Validator{K: k, KPrime: kprime, Links: links, Matcher: matcher, h: h}, nil
}

// Flip returns the validator of the reverse rules r ⇒ r': K and K'
// swapped, links read the other way, the prepared probes shared. An
// ObjectMemo serves v and its Flip together: the objects Flip fetches
// from its K are the ones v fetches from its K'.
func (v *Validator) Flip() *Validator {
	return &Validator{K: v.KPrime, KPrime: v.K, Links: flipTranslator{v.Links}, Matcher: v.Matcher, h: v.h, flipped: !v.flipped}
}

// flipTranslator swaps the directions of a Translator.
type flipTranslator struct{ t Translator }

func (f flipTranslator) ToK(x string) (string, bool)   { return f.t.FromK(x) }
func (f flipTranslator) FromK(x string) (string, bool) { return f.t.ToK(x) }

// Groups reports whether K or K' takes a group of probes as one
// (endpoint.BatchStreamer).
func (v *Validator) Groups() bool {
	_, k := v.h[0][pSample].(endpoint.BatchStreamer)
	_, kPrime := v.h[1][pSample].(endpoint.BatchStreamer)
	return k || kPrime
}

// send is the one place a probe leaves the package: it executes probe p
// on v's K — on its K' when prime is set — once per tuple of sets, and
// hands each answer to read, in tuple order, its rows as they arrive.
// The rows are borrowed (endpoint.BatchStreamer): read copies what it
// keeps of a row before its next Next. A handle that groups takes a
// streamed probe as one group, and a drained one as one group of two or
// more tuples. Any other handle takes a drained probe as one SelectCtx a
// tuple — which keeps Caching, Admission and Local exact: they see the
// single probes a group stands for — and a streamed one as one borrowed
// stream a tuple, opened when read reaches it. The first failing tuple,
// or read's first error, ends the call; a group answered in fewer sets
// than tuples fails it, never passing a short answer off as whole. The
// error names the probe and how many tuples it had.
func (v *Validator) send(ctx context.Context, p probe, prime bool, sets [][]sparql.Arg, read func(i int, rows endpoint.Rows) error) error {
	pq, streamed := v.h[0][p], probes[p].streamed
	if prime != v.flipped {
		pq = v.h[1][p]
	}
	err := func() error {
		if b, ok := pq.(endpoint.BatchStreamer); ok && (streamed || len(sets) > 1) {
			group, err := b.StreamBatch(ctx, sets)
			if err != nil {
				return err
			}
			defer group.Close()
			for i := range sets {
				if i > 0 && !group.NextResultSet() {
					return cmp.Or(group.Err(), fmt.Errorf("a group of %d answered in %d sets", len(sets), i))
				}
				if err := cmp.Or(read(i, group), group.Err()); err != nil {
					return err
				}
			}
			return nil
		}
		var drained resultRows // one for every answer of the call
		for i, args := range sets {
			var rows endpoint.Rows = &drained
			if streamed {
				var err error
				if rows, err = endpoint.StreamBorrowed(ctx, pq, args...); err != nil {
					return err
				}
			} else {
				res, err := pq.SelectCtx(ctx, args...)
				if err != nil {
					return err
				}
				drained = resultRows{res: res}
			}
			err := cmp.Or(read(i, rows), rows.Err())
			rows.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}()
	if err != nil {
		return fmt.Errorf("sampling: %s probe, %d tuples: %w", probes[p].Class, len(sets), err)
	}
	return nil
}

// resultRows reads a drained answer as the stream send's reader takes.
// send keeps one for the whole call: endpoint.ReplayRows, one a tuple,
// made a paper-world relation allocate 46.0 KB / 450 objects against
// 40.9 KB / 406 (TestAllocCeilingAlignRelation).
type resultRows struct {
	res *sparql.Result
	i   int // rows read
}

func (r *resultRows) Next() bool {
	if r.i == len(r.res.Rows) {
		return false
	}
	r.i++
	return true
}

func (r *resultRows) Vars() []string  { return r.res.Vars }
func (r *resultRows) Row() []rdf.Term { return r.res.Rows[r.i-1] }
func (r *resultRows) Err() error      { return nil }
func (r *resultRows) Truncated() bool { return r.res.Truncated }
func (r *resultRows) Close()          { r.i = len(r.res.Rows) }

// tuples is the argument tuples of a group, cut from one flat slice.
type tuples struct {
	flat []sparql.Arg
	sets [][]sparql.Arg
}

// newTuples returns room for n tuples of width arguments.
func newTuples(n, width int) tuples {
	return tuples{make([]sparql.Arg, 0, n*width), make([][]sparql.Arg, 0, n)}
}

// add appends the tuple args.
func (t *tuples) add(args ...sparql.Arg) {
	t.flat = append(t.flat, args...)
	t.sets = append(t.sets, t.flat[len(t.flat)-len(args):len(t.flat):len(t.flat)])
}

// scratch is the bookkeeping of a range call that nothing it returns
// keeps: the object questions of its rows (keys), what reading a sample
// window needs (readSample) — the window's facts in window order, each
// with its subject's index in the subjects so far, and a count per
// subject — and the rows read before they are copied out, each answer's
// end offset in ends: the overlap rows of ContradictionsEach (found) and
// the objects of an object fetch (objects). None of it reaches an
// endpoint, so it comes from scratchPool (newScratch) and goes back,
// cleared, when the call returns (release).
type scratch struct {
	keys     []objectKey
	subjects []string
	facts    []windowFact
	start    []int
	found    []Contradiction
	objects  []rdf.Term
	ends     []int
}

// windowFact is a translated fact of a window: subjects[subject] is X.
type windowFact struct {
	subject int
	y       rdf.Term
}

// scratchPool recycles the scratch of range calls.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledScratch bounds the slices of the scratch release keeps: a
// larger call's are left to the collector.
const maxPooledScratch = 4096

// newScratch returns a scratch with room for n object keys.
func newScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.keys = slices.Grow(sc.keys, n)
	return sc
}

// release hands sc back to scratchPool, cleared; sc must not be used
// after.
func (sc *scratch) release() {
	if max(cap(sc.keys), cap(sc.subjects), cap(sc.facts), cap(sc.found), cap(sc.objects), cap(sc.ends)) > maxPooledScratch {
		return
	}
	clear(sc.keys)
	clear(sc.subjects)
	clear(sc.facts)
	clear(sc.found)
	clear(sc.objects)
	sc.keys, sc.subjects, sc.facts = sc.keys[:0], sc.subjects[:0], sc.facts[:0]
	sc.found, sc.objects, sc.ends = sc.found[:0], sc.objects[:0], sc.ends[:0]
	scratchPool.Put(sc)
}

// Discover samples r-facts from K, translates up to n of them into K',
// and returns how often each predicate of K' co-occurs with them: connects
// a translated entity pair, or is a literal attribute of a translated
// subject that matches its literal object. The sample window is a stream,
// closed once n translatable facts are found. The probes of each kind go
// to K' as one group, their predicates counted as they arrive. stage
// runs the tasks: the sample stream, then one per kind of probe that has
// any — a relation's probes are mostly of one kind, and often none.
func (v *Validator) Discover(ctx context.Context, r string, n int, stage func(ctx context.Context, n int, task func(ctx context.Context, i int) error) error) (map[string]int, error) {
	entity, literal := newTuples(n, 2), tuples{}
	var lits []rdf.Term // literal.sets[i] is matched against lits[i]
	err := stage(ctx, 1, func(ctx context.Context, _ int) error {
		return v.send(ctx, pSample, false, [][]sparql.Arg{{sparql.IRIArg(r), sparql.IntArg(v.window(n))}}, func(_ int, rows endpoint.Rows) error {
			for len(entity.sets)+len(literal.sets) < n && rows.Next() {
				row := rows.Row()
				x, y := row[0], row[1]
				if !x.IsIRI() {
					continue
				}
				xp, ok := v.Links.FromK(x.Value)
				if !ok {
					continue
				}
				switch {
				case y.IsIRI():
					yp, ok := v.Links.FromK(y.Value)
					if !ok {
						continue
					}
					entity.add(sparql.IRIArg(xp), sparql.IRIArg(yp))
				case y.IsLiteral():
					if v.Matcher == nil {
						continue
					}
					literal.add(sparql.IRIArg(xp))
					lits = append(lits, y)
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("discovery sample for <%s>: %w", r, err)
	}

	groups := [2]struct {
		p    probe
		sets [][]sparql.Arg
	}{{pBetween, entity.sets}, {pLiterals, literal.sets}}
	run := groups[:]
	if len(entity.sets) == 0 {
		run = run[1:]
	}
	if len(literal.sets) == 0 {
		run = run[:len(run)-1]
	}
	hits := map[string]int{}
	var mu sync.Mutex // the groups' tasks may count at once
	err = stage(ctx, len(run), func(ctx context.Context, i int) error {
		return v.send(ctx, run[i].p, true, run[i].sets, func(k int, rows endpoint.Rows) error {
			for rows.Next() {
				row := rows.Row()
				if run[i].p == pLiterals {
					if ok, _ := v.Matcher.Match(lits[k], row[1]); !ok {
						continue
					}
				}
				if row[0].IsIRI() {
					mu.Lock()
					hits[row[0].Value]++
					mu.Unlock()
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return hits, nil
}

// BodyFact is one sampled r_sub fact translated into K space.
type BodyFact struct {
	// X is the subject translated into K.
	X string
	// Y is the object translated into K: an IRI term for entities, the
	// original literal for literal objects.
	Y rdf.Term
}

// SampleSet is the outcome of Simple Sample Extraction for one
// candidate: the translated pairs P^rsub_S grouped by subject.
type SampleSet struct {
	// Subjects lists the distinct sampled subject IRIs (K space), in
	// sample order; at most the requested sample size.
	Subjects []string
	// Facts holds the translated r_sub facts of the sampled subjects,
	// each translated pair once, grouped by subject in Subjects order.
	Facts []BodyFact
	// SkippedNoLink counts fetched facts dropped for missing sameAs
	// links (the paper: such facts are ignored, not punished).
	SkippedNoLink int
}

// window bounds how many candidate facts one sampling query retrieves
// before link-filtering: 40× the sample size, at least 200.
func (v *Validator) window(n int) int { return max(40*n, 200) }

// SampleBodies performs Simple Sample Extraction for each of rsubs, their
// sample probes one group: for each rsub it samples up to n subject
// entities of rsub in K' whose facts translate into K, and returns all
// their translated rsub facts. A sample window streams row by row — the
// full window is never materialized at once.
func (v *Validator) SampleBodies(ctx context.Context, rsubs []string, n int) ([]*SampleSet, error) {
	g := newTuples(len(rsubs), 2)
	for _, rsub := range rsubs {
		g.add(sparql.IRIArg(rsub), sparql.IntArg(v.window(n)))
	}
	sets := make([]SampleSet, len(rsubs))
	out := make([]*SampleSet, len(rsubs))
	sc := newScratch(0)
	defer sc.release()
	err := v.send(ctx, pSample, true, g.sets, func(i int, rows endpoint.Rows) error {
		out[i] = &sets[i]
		v.readSample(rows, n, out[i], sc)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("body sample for <%s> and %d more: %w", rsubs[0], len(rsubs)-1, err)
	}
	return out, nil
}

// readSample reads one sample window into set: the translated facts of
// up to n subjects. Subjects and facts are told apart in K: two K'
// subjects linked to one K entity are one subject, and two facts that
// translate to one pair are one. The facts are read in window order and
// then grouped by subject, stably, into Facts; both of set's slices are
// cut to size.
func (v *Validator) readSample(rows endpoint.Rows, n int, set *SampleSet, sc *scratch) {
	sc.subjects, sc.facts = sc.subjects[:0], sc.facts[:0]
	for rows.Next() {
		row := rows.Row()
		xp, yp := row[0], row[1]
		if !xp.IsIRI() {
			continue
		}
		x, ok := v.Links.ToK(xp.Value)
		if !ok {
			set.SkippedNoLink++
			continue
		}
		var y rdf.Term
		switch {
		case yp.IsLiteral():
			if v.Matcher == nil {
				set.SkippedNoLink++
				continue
			}
			y = yp
		case yp.IsIRI():
			yk, ok := v.Links.ToK(yp.Value)
			if !ok {
				set.SkippedNoLink++
				continue
			}
			y = rdf.NewIRI(yk)
		default:
			continue
		}
		subject := slices.Index(sc.subjects, x)
		if subject < 0 {
			if len(sc.subjects) >= n {
				continue
			}
			subject = len(sc.subjects)
			sc.subjects = append(sc.subjects, x)
		}
		if !slices.Contains(sc.facts, windowFact{subject, y}) {
			sc.facts = append(sc.facts, windowFact{subject, y})
		}
	}
	if len(sc.subjects) == 0 {
		return
	}
	set.Subjects = slices.Clone(sc.subjects)
	// A stable counting sort by subject: start[s] is where subject s's
	// next fact goes.
	sc.start = append(sc.start[:0], make([]int, len(sc.subjects)+1)...)
	for _, f := range sc.facts {
		sc.start[f.subject+1]++
	}
	for s := 1; s < len(sc.start); s++ {
		sc.start[s] += sc.start[s-1]
	}
	set.Facts = make([]BodyFact, len(sc.facts))
	for _, f := range sc.facts {
		set.Facts[sc.start[f.subject]] = BodyFact{X: set.Subjects[f.subject], Y: f.y}
		sc.start[f.subject]++
	}
}

// ObjectMemo is one alignment's object memo: the objects of r(x, ·) in
// either KB, keyed by (KB, x, r), each fetched once whatever the stage,
// Parallelism, grouping or timing — so every stage of an alignment asks
// each object question once, on every endpoint, and which stage task
// asks it is the only thing timing decides. A TmplObjects result has no
// RAND and no LIMIT, so the answer a stage reuses is the one it would
// have fetched. Create one per alignment and hand it to every object
// fetch of that alignment, through one Validator and its Flip. The zero
// value is ready to use.
type ObjectMemo struct {
	claims flight.Claims[objectKey, []rdf.Term]

	mu   sync.Mutex
	rels []relation // an objectKey's rel indexes this
}

// relation is one relation of one KB: of the K' of the unflipped
// validator when kPrime is set, of its K otherwise.
type relation struct {
	r      string
	kPrime bool
}

// objectKey names one object question: the objects of rels[rel](x, ·).
// An alignment asks of a few relations about many subjects, so the
// relation half of the key is a number: the key is small, and so is the
// memo's table.
type objectKey struct {
	x   string
	rel uint32
}

// NewObjectMemo returns an ObjectMemo with room for n object questions.
func NewObjectMemo(n int) *ObjectMemo {
	m := new(ObjectMemo)
	m.claims.Reserve(n)
	return m
}

// relation numbers r, a relation of K — of K' when prime is set — for
// v's object questions about it.
func (v *Validator) relation(memo *ObjectMemo, prime bool, r string) uint32 {
	rel := relation{r, prime != v.flipped}
	memo.mu.Lock()
	defer memo.mu.Unlock()
	for i, have := range memo.rels {
		if have == rel {
			return uint32(i)
		}
	}
	memo.rels = append(memo.rels, rel)
	return uint32(len(memo.rels) - 1)
}

// objectsOf returns, for every key, the objects of its relation in K —
// in K' when prime is set — for its subject. The keys memo has not seen
// go out as one group, drained (send): the fetches are independent, so
// an endpoint that can take them together does — one request, one per
// shard — and any other runs them in order, stopping at the first
// failure; then it waits for the keys another stage task is fetching.
// What the memo keeps is one slice of exactly the objects read. It is
// the one object fetch of both samplers: Simple Sample Extraction needs
// the full r-facts of its sampled subjects for the PCA denominator, the
// UBS check stage those of its overlap subjects.
func (v *Validator) objectsOf(ctx context.Context, memo *ObjectMemo, prime bool, keys []objectKey) ([][]rdf.Term, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	return memo.claims.Get(keys, func(miss []int) ([][]rdf.Term, error) {
		memo.mu.Lock()
		rels := memo.rels
		memo.mu.Unlock()
		g := newTuples(len(miss), 2)
		for _, i := range miss {
			g.add(sparql.IRIArg(keys[i].x), sparql.IRIArg(rels[keys[i].rel].r))
		}
		sc := newScratch(0)
		defer sc.release()
		err := v.send(ctx, pObjects, prime, g.sets, func(_ int, rows endpoint.Rows) error {
			for rows.Next() {
				sc.objects = append(sc.objects, rows.Row()[0])
			}
			sc.ends = append(sc.ends, len(sc.objects))
			return nil
		})
		if err != nil {
			return nil, err
		}
		flat, start := slices.Clone(sc.objects), 0
		objs := make([][]rdf.Term, len(miss))
		for i, end := range sc.ends {
			objs[i], start = flat[start:end:end], end
		}
		return objs, nil
	})
}

// Rule is one candidate rule Body ⇒ Head, Body a relation of K' and Head
// one of K, with what SimpleEvidenceEach found for it.
type Rule struct {
	Body, Head string
	Ev         *ilp.Evidence
	Set        *SampleSet
}

// SimpleEvidenceEach runs the full Simple Sample Extraction pipeline for
// each of rules with a sample of n subjects, filling in its Ev (one
// PairEvidence per translated body fact) and Set: the sample probes of
// all of them are one group, and the head-object fetches of all their
// sampled subjects go through memo.
func (v *Validator) SimpleEvidenceEach(ctx context.Context, memo *ObjectMemo, rules []Rule, n int) error {
	bodies := make([]string, len(rules))
	for i := range rules {
		bodies[i] = rules[i].Body
	}
	sets, err := v.SampleBodies(ctx, bodies, n)
	if err != nil {
		return err
	}
	subjects, facts := 0, 0
	for _, set := range sets {
		subjects, facts = subjects+len(set.Subjects), facts+len(set.Facts)
	}
	sc := newScratch(subjects)
	defer sc.release()
	for i, set := range sets {
		head := v.relation(memo, false, rules[i].Head)
		for _, x := range set.Subjects {
			sc.keys = append(sc.keys, objectKey{x, head})
		}
	}
	objs, err := v.objectsOf(ctx, memo, false, sc.keys)
	if err != nil {
		return err
	}
	evs := make([]ilp.Evidence, len(sets))
	pairs := make([]ilp.PairEvidence, facts) // cut into each rule's Pairs
	for i, set := range sets {
		ev := &evs[i]
		ev.Pairs, pairs = pairs[:0:len(set.Facts)], pairs[len(set.Facts):]
		// the facts come subject after subject, in Subjects order
		k := 0
		for _, f := range set.Facts {
			for set.Subjects[k] != f.X {
				k++
			}
			held := objs[k]
			ev.Add(ilp.PairEvidence{
				X:              f.X,
				Y:              f.Y.String(),
				HeadHolds:      v.objectMatches(f.Y, held),
				SubjectHasHead: len(held) > 0,
			})
		}
		objs = objs[len(set.Subjects):]
		rules[i].Ev, rules[i].Set = ev, set
	}
	return nil
}

// objectMatches decides whether the translated object y occurs among the
// head objects: IRI equality for entities, literal matching for
// literals.
func (v *Validator) objectMatches(y rdf.Term, objs []rdf.Term) bool {
	if y.IsLiteral() {
		if v.Matcher == nil {
			return false
		}
		_, _, ok := v.Matcher.Best(y, objs)
		return ok
	}
	for _, o := range objs {
		if o == y {
			return true
		}
	}
	return false
}
