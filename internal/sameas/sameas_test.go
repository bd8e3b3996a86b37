package sameas

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddAndTranslate(t *testing.T) {
	l := New()
	if !l.Add("a1", "b1") {
		t.Fatal("first Add not fresh")
	}
	if l.Add("a1", "b2") {
		t.Fatal("second Add for same A reported fresh")
	}
	b, ok := l.AtoB("a1")
	if !ok || b != "b1" {
		t.Fatalf("AtoB = %q, %v", b, ok)
	}
	a, ok := l.BtoA("b1")
	if !ok || a != "a1" {
		t.Fatalf("BtoA = %q, %v", a, ok)
	}
	if _, ok := l.AtoB("ghost"); ok {
		t.Fatal("translation for unknown entity")
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestSameClosure(t *testing.T) {
	l := New()
	l.Add("a1", "b1")
	l.Add("a2", "b1") // a1 ~ b1 ~ a2
	l.Add("a3", "b3")
	if !l.Same("a1", "a2") {
		t.Fatal("closure missing a1~a2")
	}
	if !l.Same("a1", "b1") || !l.Same("b1", "a2") {
		t.Fatal("direct links missing")
	}
	if l.Same("a1", "a3") {
		t.Fatal("disjoint classes merged")
	}
	if l.Same("a1", "never-seen") {
		t.Fatal("unknown entity equivalent to known")
	}
	if !l.Same("x", "x") {
		t.Fatal("reflexivity")
	}
}

func TestSubsetFractionAndDeterminism(t *testing.T) {
	l := New()
	for i := 0; i < 100; i++ {
		l.Add(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
	}
	half1 := l.Subset(0.5, 42)
	half2 := l.Subset(0.5, 42)
	if half1.Len() != 50 || half2.Len() != 50 {
		t.Fatalf("len = %d, %d", half1.Len(), half2.Len())
	}
	p1, p2 := half1.Pairs(), half2.Pairs()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed produced different subsets")
		}
	}
	all := l.Subset(1.0, 1)
	if all.Len() != 100 {
		t.Fatalf("full subset len = %d", all.Len())
	}
	none := l.Subset(0, 1)
	if none.Len() != 0 {
		t.Fatalf("empty subset len = %d", none.Len())
	}
	// out-of-range fractions clamp
	if l.Subset(2.0, 1).Len() != 100 || l.Subset(-1, 1).Len() != 0 {
		t.Fatal("fraction clamping broken")
	}
}

// Property: Same is symmetric and transitive over random link graphs.
func TestQuickEquivalenceRelation(t *testing.T) {
	f := func(edges []uint8) bool {
		l := New()
		names := func(i uint8) (string, string) {
			return fmt.Sprintf("a%d", i%8), fmt.Sprintf("b%d", (i>>3)%8)
		}
		for _, e := range edges {
			a, b := names(e)
			l.Add(a, b)
		}
		var all []string
		for i := 0; i < 8; i++ {
			all = append(all, fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
		}
		for _, x := range all {
			for _, y := range all {
				if l.Same(x, y) != l.Same(y, x) {
					return false
				}
				for _, z := range all {
					if l.Same(x, y) && l.Same(y, z) && !l.Same(x, z) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
