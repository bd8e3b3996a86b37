package synth

// TruthPair is one gold-standard subsumption Body(x,y) ⇒ Head(x,y).
type TruthPair struct {
	// Body and Head are relation IRIs; Body belongs to the direction's
	// body KB, Head to its head KB.
	Body, Head string
	// Equivalent marks pairs that are half of an equivalence (the
	// converse pair is also in the gold standard).
	Equivalent bool
}

// GroundTruth is the generator's gold standard, one pair list per
// direction. Direction naming follows DESIGN.md §6: YagoToDbp holds
// rules with YAGO bodies and DBpedia heads ("yago ⊂ dbpd").
type GroundTruth struct {
	YagoToDbp []TruthPair
	DbpToYago []TruthPair

	y2d map[string]bool
	d2y map[string]bool
}

func newGroundTruth() *GroundTruth {
	return &GroundTruth{y2d: make(map[string]bool), d2y: make(map[string]bool)}
}

func gtKey(body, head string) string { return body + "\x00" + head }

func (gt *GroundTruth) addY2D(body, head string, equiv bool) {
	if gt.y2d[gtKey(body, head)] {
		return
	}
	gt.y2d[gtKey(body, head)] = true
	gt.YagoToDbp = append(gt.YagoToDbp, TruthPair{Body: body, Head: head, Equivalent: equiv})
}

func (gt *GroundTruth) addD2Y(body, head string, equiv bool) {
	if gt.d2y[gtKey(body, head)] {
		return
	}
	gt.d2y[gtKey(body, head)] = true
	gt.DbpToYago = append(gt.DbpToYago, TruthPair{Body: body, Head: head, Equivalent: equiv})
}
