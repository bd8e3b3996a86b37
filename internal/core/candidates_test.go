package core

import (
	"context"
	"reflect"
	"testing"
)

// TestAlignPruningOffBuildsNoIndex pins the exact-mode contract: with
// CandidateTopK unset the aligner must never touch the candidate
// index, so output (and endpoint traffic) is identical to builds
// predating the feature.
func TestAlignPruningOffBuildsNoIndex(t *testing.T) {
	a := alignerD2Y(UBSConfig())
	als, err := a.AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	if len(als) == 0 {
		t.Fatal("no alignments")
	}
	if a.cands.Len() != 0 {
		t.Fatal("candidate index built despite CandidateTopK == 0")
	}
}

// TestAlignPrunedMatchesExactOnPaperWorld runs the same alignment with
// and without candidate pruning at a top-k wide enough for the paper
// world: the outputs must be deep-equal, because pruning only filters
// the candidate universe and the universe fits inside k.
func TestAlignPrunedMatchesExactOnPaperWorld(t *testing.T) {
	exact, err := alignerD2Y(UBSConfig()).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("exact align: %v", err)
	}
	cfg := UBSConfig()
	cfg.CandidateTopK = 16
	pruned, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("pruned align: %v", err)
	}
	if !reflect.DeepEqual(exact, pruned) {
		t.Fatalf("pruned output differs from exact:\nexact:  %+v\npruned: %+v", exact, pruned)
	}
}

// TestAlignPrunedIsSubsetOfExact pins the pruning invariant at any k:
// the pruned run's candidate rules are a subset of the exact run's.
func TestAlignPrunedIsSubsetOfExact(t *testing.T) {
	exact, err := alignerD2Y(UBSConfig()).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("exact align: %v", err)
	}
	inExact := map[string]bool{}
	for _, al := range exact {
		inExact[al.Rule.Body] = true
	}
	cfg := UBSConfig()
	cfg.CandidateTopK = 2
	pruned, err := alignerD2Y(cfg).AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("pruned align: %v", err)
	}
	if len(pruned) == 0 || len(pruned) > len(exact) {
		t.Fatalf("pruned run emitted %d rules, exact %d", len(pruned), len(exact))
	}
	for _, al := range pruned {
		if !inExact[al.Rule.Body] {
			t.Errorf("pruned rule body %s absent from exact run", al.Rule.Body)
		}
	}
}

// TestAlignRelationWithin checks the injected-universe form directly.
func TestAlignRelationWithin(t *testing.T) {
	a := alignerD2Y(DefaultConfig())
	als, err := a.AlignRelationWithin(context.Background(), yNS+"creatorOf", map[string]bool{dNS + "composerOf": true})
	if err != nil {
		t.Fatalf("align within: %v", err)
	}
	if len(als) != 1 || als[0].Rule.Body != dNS+"composerOf" {
		t.Fatalf("restricted universe leaked: %+v", als)
	}
	// nil universe = unrestricted: same as AlignRelation.
	all, err := a.AlignRelationWithin(context.Background(), yNS+"creatorOf", nil)
	if err != nil {
		t.Fatalf("align within nil: %v", err)
	}
	plain, err := a.AlignRelation(yNS + "creatorOf")
	if err != nil {
		t.Fatalf("align: %v", err)
	}
	if !reflect.DeepEqual(all, plain) {
		t.Fatal("nil universe differs from AlignRelation")
	}
}
