package strsim

import (
	"fmt"
	"sync"
	"testing"
)

// ngramDiceRebuild is the n-gram Dice coefficient with both gram
// multisets rebuilt on every call. It is the differential reference for
// Profile.Dice and the "before" side of the benchmark pair.
func ngramDiceRebuild(a, b string, n int) float64 {
	if n < 1 {
		n = 2
	}
	ga, gb := ngrams(a, n), ngrams(b, n)
	if len(ga) == 0 && len(gb) == 0 {
		if a == b {
			return 1
		}
		return 0
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	counts := make(map[string]int, len(ga))
	for _, g := range ga {
		counts[g]++
	}
	common := 0
	for _, g := range gb {
		if counts[g] > 0 {
			counts[g]--
			common++
		}
	}
	return 2 * float64(common) / float64(len(ga)+len(gb))
}

var dicePairs = [][2]string{
	{"birthPlace", "wasBornIn"},
	{"birthPlace", "placeOfBirth"},
	{"hasDirector", "directedBy"},
	{"composerOf", "created"},
	{"", ""},
	{"a", "a"},
	{"a", "b"},
	{"ab", "ab"},
	{"Ab", "ab"},
	{"aa", "aaa"},
	{"aaaa", "aaaa"},
	{"née Müller", "nee muller"},
	{"The Nocturne of the River", "Nocturne River"},
	{"mississippi", "mississippi"},
	{"mississippi", "missouri"},
}

func TestNGramDiceMatchesRebuildReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		for _, p := range dicePairs {
			pa, pb := ProfileOf(p[0], n), ProfileOf(p[1], n)
			if pa.Total == 0 && pb.Total == 0 {
				continue // no grams on either side: the reference compares the strings
			}
			want := ngramDiceRebuild(p[0], p[1], n)
			if got := pa.Dice(pb); got != want {
				t.Errorf("Dice(%q, %q, %d) = %v, reference %v", p[0], p[1], n, got, want)
			}
		}
	}
}

func TestProfileMemoized(t *testing.T) {
	a := ProfileOf("memo-probe-string", 3)
	b := ProfileOf("memo-probe-string", 3)
	if a != b {
		t.Fatalf("ProfileOf returned distinct profiles for the same key")
	}
	c := ProfileOf("memo-probe-string", 2)
	if c == a {
		t.Fatalf("ProfileOf shared a profile across different n")
	}
}

func TestProfileCounts(t *testing.T) {
	p := NewProfile("aabab", 2) // grams: aa ab ba ab
	if p.Total != 4 {
		t.Fatalf("Total = %d, want 4", p.Total)
	}
	want := map[string]int32{"aa": 1, "ab": 2, "ba": 1}
	if len(p.Grams) != len(want) {
		t.Fatalf("distinct grams = %v, want %v", p.Grams, want)
	}
	for i, g := range p.Grams {
		if p.Counts[i] != want[g] {
			t.Errorf("count(%q) = %d, want %d", g, p.Counts[i], want[g])
		}
		if i > 0 && p.Grams[i-1] >= g {
			t.Errorf("grams not strictly sorted: %v", p.Grams)
		}
	}
}

func TestProfileCacheResetKeepsAnswers(t *testing.T) {
	// Force at least one generation flip and check profiles built
	// before it still answer correctly.
	before := ProfileOf("survivor", 3)
	for i := 0; i < profileCacheCap+64; i++ {
		ProfileOf(fmt.Sprintf("filler-%d", i), 3)
	}
	after := ProfileOf("survivor", 3)
	if before.Dice(after) != 1 {
		t.Fatalf("profile changed across cache reset")
	}
}

func TestProfileOfConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := fmt.Sprintf("conc-%d", i%17)
				if ProfileOf(s, 3).Dice(ProfileOf("conc-3", 3)) != ngramDiceRebuild(s, "conc-3", 3) {
					t.Errorf("concurrent Dice diverged for %q", s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The before/after pair for the memoization satellite: Rebuild is the
// old per-call gram extraction, Memoized the shipped path. One warm
// string pair compared repeatedly, as the aligner does when scoring a
// literal against a candidate list.
func BenchmarkNGramDiceRebuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ngramDiceRebuild("The Nocturne of the River 42", "Nocturne_of_the_River_42", 3)
	}
}

func BenchmarkNGramDiceMemoized(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ProfileOf("The Nocturne of the River 42", 3).Dice(ProfileOf("Nocturne_of_the_River_42", 3))
	}
}
