package sampling

import (
	"reflect"
	"strings"
	"testing"

	"sofya/internal/endpoint"
	"sofya/internal/ilp"
	"sofya/internal/kb"
	"sofya/internal/rdf"
	"sofya/internal/sameas"
	"sofya/internal/strsim"
)

const (
	yNS = "http://y/" // K (head side)
	dNS = "http://d/" // K' (body side)
)

// paperWorld builds the paper's §2.2 examples by hand:
//
//	K  (yago-ish):  creatorOf, directedBy, bornYear (literal)
//	K' (dbp-ish):   composerOf ⊂ creatorOf, writerOf ⊂ creatorOf,
//	                hasDirector ≡ directedBy, hasProducer (confounder),
//	                birthDate (literal ≡ bornYear)
func paperWorld() (*kb.KB, *kb.KB, *sameas.Links) {
	y := kb.New("K")
	d := kb.New("Kprime")
	links := sameas.New()

	link := func(name string) (string, string) {
		a, b := yNS+name, dNS+name
		links.Add(a, b) // A side = K(y), B side = K'(d)
		return a, b
	}

	// entities: composers c0..c4 (compose only), writers w0..w4,
	// polymath p (composes and writes), movies m0..m5, directors,
	// producers.
	for i := 0; i < 6; i++ {
		n := string(rune('0' + i))
		link("comp" + n) // compositions
		link("book" + n) // books
		link("movie" + n)
		link("dirP" + n)
		link("prodP" + n)
	}
	for i := 0; i < 5; i++ {
		n := string(rune('0' + i))
		link("c" + n)
		link("w" + n)
	}
	link("poly")

	addBoth := func(yRel, dRel, s, o string) {
		y.AddIRIs(yNS+s, yNS+yRel, yNS+o)
		d.AddIRIs(dNS+s, dNS+dRel, dNS+o)
	}

	// composers create compositions; writers create books
	for i := 0; i < 5; i++ {
		n := string(rune('0' + i))
		addBoth("creatorOf", "composerOf", "c"+n, "comp"+n)
		addBoth("creatorOf", "writerOf", "w"+n, "book"+n)
	}
	// the polymath creates one of each — the UBS overlap subject
	addBoth("creatorOf", "composerOf", "poly", "comp5")
	addBoth("creatorOf", "writerOf", "poly", "book5")

	// movies: directors; producers same person for movies 0..3,
	// different for movies 4..5
	for i := 0; i < 6; i++ {
		n := string(rune('0' + i))
		addBoth("directedBy", "hasDirector", "movie"+n, "dirP"+n)
		if i < 4 {
			// producer == director
			y.AddIRIs(yNS+"movie"+n, yNS+"producedBy", yNS+"dirP"+n)
			d.AddIRIs(dNS+"movie"+n, dNS+"hasProducer", dNS+"dirP"+n)
		} else {
			y.AddIRIs(yNS+"movie"+n, yNS+"producedBy", yNS+"prodP"+n)
			d.AddIRIs(dNS+"movie"+n, dNS+"hasProducer", dNS+"prodP"+n)
		}
	}

	// literal relation: bornYear (gYear) vs birthDate (date)
	for i := 0; i < 5; i++ {
		n := string(rune('0' + i))
		y.Add(rdf.NewTriple(rdf.NewIRI(yNS+"c"+n), rdf.NewIRI(yNS+"bornYear"),
			rdf.NewTypedLiteral("190"+n, rdf.XSDGYear)))
		d.Add(rdf.NewTriple(rdf.NewIRI(dNS+"c"+n), rdf.NewIRI(dNS+"birthDate"),
			rdf.NewTypedLiteral("190"+n+"-03-04", rdf.XSDDate)))
	}

	return y, d, links
}

func newValidator(t *testing.T) (*Validator, *endpoint.Local, *endpoint.Local) {
	t.Helper()
	y, d, links := paperWorld()
	ky := endpoint.NewLocal(y, 11)
	kd := endpoint.NewLocal(d, 22)
	v := &Validator{
		K:       ky,
		KPrime:  kd,
		Links:   LinkView{Links: links, KIsA: true},
		Matcher: strsim.DefaultMatcher(),
	}
	return v, ky, kd
}

// sampleBody, simpleEvidence and contradictions run the Validator's
// group calls for one item.
func sampleBody(v *Validator, rsub string, n int) (*SampleSet, error) {
	sets, err := v.SampleBodies([]string{rsub}, n)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

func simpleEvidence(v *Validator, rsub, r string, n int) (*ilp.Evidence, *SampleSet, error) {
	rules := []Rule{{Body: rsub, Head: r}}
	err := v.SimpleEvidenceEach(new(ObjectMemo), rules, n)
	return rules[0].Ev, rules[0].Set, err
}

func contradictions(v *Validator, side Side, a, b, check string, m int) (*UBSResult, error) {
	pairs := []SiblingPair{{A: a, B: b, Check: check}}
	err := v.ContradictionsEach(new(ObjectMemo), side, pairs, m)
	return pairs[0].Res, err
}

func TestLinkView(t *testing.T) {
	links := sameas.New()
	links.Add("a1", "b1")
	v := LinkView{Links: links, KIsA: true}
	if got, ok := v.ToK("b1"); !ok || got != "a1" {
		t.Fatalf("ToK = %q, %v", got, ok)
	}
	if got, ok := v.FromK("a1"); !ok || got != "b1" {
		t.Fatalf("FromK = %q, %v", got, ok)
	}
	fl := LinkView{Links: links, KIsA: false}
	if got, ok := fl.ToK("a1"); !ok || got != "b1" {
		t.Fatalf("flipped ToK = %q, %v", got, ok)
	}
	if _, ok := fl.ToK("zzz"); ok {
		t.Fatal("unknown entity translated")
	}
}

func TestSampleBody(t *testing.T) {
	v, _, _ := newValidator(t)
	set, err := sampleBody(v, dNS+"composerOf", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Subjects) != 3 {
		t.Fatalf("subjects = %d, want 3", len(set.Subjects))
	}
	for _, f := range set.Facts {
		if !strings.HasPrefix(f.X, yNS) {
			t.Fatalf("subject not translated: %q", f.X)
		}
		if !f.Y.IsIRI() || !strings.HasPrefix(f.Y.Value, yNS) {
			t.Fatalf("object not translated: %v", f.Y)
		}
	}
}

func TestSampleBodyMoreThanAvailable(t *testing.T) {
	v, _, _ := newValidator(t)
	set, err := sampleBody(v, dNS+"composerOf", 100)
	if err != nil {
		t.Fatal(err)
	}
	// 5 composers + the polymath
	if len(set.Subjects) != 6 {
		t.Fatalf("subjects = %d, want 6", len(set.Subjects))
	}
	if len(set.Facts) != 6 {
		t.Fatalf("facts = %d, want 6", len(set.Facts))
	}
}

func TestSampleBodySkipsUnlinked(t *testing.T) {
	y, d, links := paperWorld()
	// an unlinked fact: subject with no sameAs
	d.AddIRIs(dNS+"ghost", dNS+"composerOf", dNS+"comp0")
	v := &Validator{
		K:      endpoint.NewLocal(y, 1),
		KPrime: endpoint.NewLocal(d, 2),
		Links:  LinkView{Links: links, KIsA: true},
	}
	set, err := sampleBody(v, dNS+"composerOf", 100)
	if err != nil {
		t.Fatal(err)
	}
	if set.SkippedNoLink == 0 {
		t.Fatal("unlinked fact not counted as skipped")
	}
	for _, f := range set.Facts {
		if strings.Contains(f.X, "ghost") {
			t.Fatal("unlinked subject sampled")
		}
	}
}

func TestSimpleEvidenceTrueRule(t *testing.T) {
	v, _, _ := newValidator(t)
	// composerOf ⇒ creatorOf is true: every sampled fact confirmed
	ev, set, err := simpleEvidence(v, dNS+"composerOf", yNS+"creatorOf", 10)
	if err != nil {
		t.Fatal(err)
	}
	if set == nil || ev.Total() == 0 {
		t.Fatal("no evidence gathered")
	}
	if ev.Support() != ev.Total() {
		t.Fatalf("true rule has counterexamples: %d/%d", ev.Support(), ev.Total())
	}
	if ev.PCAConf() != 1 || ev.CWAConf() != 1 {
		t.Fatalf("confidences = %f, %f", ev.PCAConf(), ev.CWAConf())
	}
}

func TestSimpleEvidenceWrongDirectionIsBlindWithoutUBS(t *testing.T) {
	// creatorOf ⇒ composerOf (wrong: creators also write books). With
	// simple sampling the polymath might expose it, but pure composers
	// dominate; verify the measure shape rather than a fixed number:
	// pca ≥ cwa, and support < total (the writers' books are
	// unconfirmed).
	v, _, _ := newValidator(t)
	flip := &Validator{K: v.KPrime, KPrime: v.K, Links: LinkView{Links: v.Links.(LinkView).Links, KIsA: false}, Matcher: v.Matcher}
	ev, _, err := simpleEvidence(flip, yNS+"creatorOf", dNS+"composerOf", 12)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total() == 0 {
		t.Fatal("no evidence")
	}
	if ev.PCAConf() < ev.CWAConf() {
		t.Fatalf("pca (%f) < cwa (%f)", ev.PCAConf(), ev.CWAConf())
	}
	if ev.Support() == ev.Total() {
		t.Fatal("wrong rule fully confirmed — world construction broken")
	}
}

func TestHeadObjects(t *testing.T) {
	v, ky, kd := newValidator(t)
	if err := v.prepare(); err != nil {
		t.Fatal(err)
	}
	// one group: a subject with two objects, one with one, one with none,
	// and the first again
	memo := new(ObjectMemo)
	var keys []objectKey
	for _, x := range []string{"poly", "c0", "nobody", "poly"} {
		keys = append(keys, objectKey{yNS + x, v.relation(memo, false, yNS+"creatorOf")})
	}
	objs, err := v.objectsOf(memo, false, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 || len(objs[0]) != 2 || len(objs[1]) != 1 || len(objs[2]) != 0 || !reflect.DeepEqual(objs[3], objs[0]) {
		t.Fatalf("objects = %v", objs)
	}
	if objs[1][0] != rdf.NewIRI(yNS+"comp0") {
		t.Fatalf("objects of c0 = %v", objs[1])
	}
	if q := ky.Stats().Queries; q != 3 {
		t.Fatalf("K queries = %d, want 3 (one per distinct subject)", q)
	}
	if objs, err := v.objectsOf(memo, false, nil); err != nil || objs != nil || ky.Stats().Queries != 3 {
		t.Fatalf("empty group: %v, %v, %d queries", objs, err, ky.Stats().Queries)
	}
	// The memo answers a key it has seen; its Flip asks the same KB from
	// the other side, so it shares the answers — and asks nothing of the
	// other KB for them.
	flip := v.Flip()
	if err := flip.prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := flip.objectsOf(memo, true, []objectKey{{yNS + "c0", flip.relation(memo, true, yNS+"creatorOf")}}); err != nil || ky.Stats().Queries != 3 || kd.Stats().Queries != 0 {
		t.Fatalf("flipped validator over the same memo: %v, %d + %d queries", err, ky.Stats().Queries, kd.Stats().Queries)
	}
	// The same (x, r) in the other KB is another question.
	if _, err := v.objectsOf(memo, true, []objectKey{{yNS + "c0", v.relation(memo, true, yNS+"creatorOf")}}); err != nil || kd.Stats().Queries != 1 {
		t.Fatalf("K' objects: %v, %d queries", err, kd.Stats().Queries)
	}
}

func TestLiteralEvidence(t *testing.T) {
	v, _, _ := newValidator(t)
	// birthDate(x, 1900-03-04) ⇒ bornYear(x, 1900): literal matcher
	// bridges date vs gYear.
	ev, _, err := simpleEvidence(v, dNS+"birthDate", yNS+"bornYear", 10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total() != 5 {
		t.Fatalf("evidence total = %d, want 5", ev.Total())
	}
	if ev.Support() != 5 {
		t.Fatalf("support = %d, want 5", ev.Support())
	}
}

func TestLiteralEvidenceWithoutMatcher(t *testing.T) {
	v, _, _ := newValidator(t)
	v.Matcher = nil
	ev, set, err := simpleEvidence(v, dNS+"birthDate", yNS+"bornYear", 10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total() != 0 || set.SkippedNoLink != 5 {
		t.Fatalf("matcherless literal sampling: total=%d skipped=%d", ev.Total(), set.SkippedNoLink)
	}
}

func TestContradictionsComposerWriter(t *testing.T) {
	v, _, _ := newValidator(t)
	// siblings composerOf/writerOf against creatorOf: the polymath is
	// the only overlap subject; creatorOf holds for both of its works,
	// so the row refutes the equivalence creatorOf ⇔ composerOf but NOT
	// the subsumption writerOf ⇒ creatorOf.
	res, err := contradictions(v, BodySide, dNS+"composerOf", dNS+"writerOf", yNS+"creatorOf", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (the polymath)", len(res.Rows))
	}
	if res.CounterReverse() != 1 {
		t.Fatal("equivalence not refuted")
	}
	if res.CounterSubsumption() != 0 {
		t.Fatal("true subsumption wrongly refuted")
	}
}

func TestContradictionsDirectorProducer(t *testing.T) {
	v, _, _ := newValidator(t)
	// siblings hasDirector/hasProducer against directedBy: movies 4..5
	// have producer ≠ director; directedBy(x, director) holds while
	// directedBy(x, producer) does not → refutes hasProducer ⇒ directedBy.
	res, err := contradictions(v, BodySide, dNS+"hasDirector", dNS+"hasProducer", yNS+"directedBy", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (movies 4,5)", len(res.Rows))
	}
	if res.CounterSubsumption() != 2 {
		t.Fatalf("wrong subsumption not refuted: %+v", res.Rows)
	}
	if res.CounterReverse() != 0 {
		t.Fatal("phantom equivalence refutation")
	}
}

func TestContradictionsHeadSide(t *testing.T) {
	v, _, _ := newValidator(t)
	// Mirror test: sample overlap subjects of creatorOf… there is no
	// sibling of creatorOf in K, so use the composer/writer pair through
	// the head side of the flipped direction instead: siblings live in
	// K (here K'), check relation lives in K'. We emulate the flipped
	// aligner direction: rules yago-body ⇒ dbp-head.
	res, err := contradictions(v, HeadSide, yNS+"creatorOf", yNS+"creatorOf", dNS+"composerOf", 10)
	if err != nil {
		t.Fatal(err)
	}
	// a(x,y1) ∧ a(x,y2) ∧ ¬a(x,y2) is unsatisfiable with a == b… except
	// for multi-object subjects (poly): y1=comp5,y2=book5 with
	// ¬creatorOf(poly, book5) false → zero rows.
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0 for degenerate sibling pair", len(res.Rows))
	}
}

func TestContradictionsQueryBudget(t *testing.T) {
	v, ky, kd := newValidator(t)
	ky.ResetStats()
	kd.ResetStats()
	_, err := contradictions(v, BodySide, dNS+"hasDirector", dNS+"hasProducer", yNS+"directedBy", 10)
	if err != nil {
		t.Fatal(err)
	}
	// 1 overlap query on K' + one object fetch per distinct subject on K
	if kd.Stats().Queries != 1 {
		t.Fatalf("K' queries = %d, want 1", kd.Stats().Queries)
	}
	if ky.Stats().Queries != 2 {
		t.Fatalf("K queries = %d, want 2 (two movies)", ky.Stats().Queries)
	}
}

func TestSimpleEvidenceEmptyRelation(t *testing.T) {
	v, _, _ := newValidator(t)
	ev, set, err := simpleEvidence(v, dNS+"nonexistent", yNS+"creatorOf", 5)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total() != 0 || len(set.Subjects) != 0 {
		t.Fatal("evidence from empty relation")
	}
}
