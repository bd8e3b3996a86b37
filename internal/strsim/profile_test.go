package strsim

import "testing"

func TestProfileCounts(t *testing.T) {
	p := NewProfile("aabab", 2) // grams: aa ab ba ab
	total := int32(0)
	for _, c := range p.Counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("Σ Counts = %d, want 4", total)
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
