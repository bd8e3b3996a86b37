package eval

import (
	"strings"
	"testing"

	"sofya/internal/core"
	"sofya/internal/ilp"
)

func al(body, head string, conf float64, support int, accepted bool) core.Alignment {
	return core.Alignment{
		Rule:       ilp.Rule{Body: body, Head: head, BodyKB: "b", HeadKB: "h"},
		Confidence: conf,
		Support:    support,
		Accepted:   accepted,
	}
}

func TestGold(t *testing.T) {
	g := NewGold([][2]string{{"b1", "h1"}, {"b2", "h2"}})
	if !g.set["b1\x00h1"] || g.set["b1\x00h2"] {
		t.Fatal("gold set wrong")
	}
	if g.Size() != 2 {
		t.Fatalf("Size = %d", g.Size())
	}
}

func TestScore(t *testing.T) {
	g := NewGold([][2]string{{"b1", "h1"}, {"b2", "h2"}, {"b3", "h3"}})
	accepted := []core.Alignment{
		al("b1", "h1", 0.9, 5, true),  // TP
		al("bX", "h1", 0.8, 5, true),  // FP
		al("b2", "h2", 0.2, 5, false), // rejected: ignored
		al("b1", "h1", 0.9, 5, true),  // duplicate TP: counted once
	}
	m := Score(accepted, g)
	if m.TP != 1 || m.FP != 1 || m.FN != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Precision != 0.5 {
		t.Fatalf("precision = %f", m.Precision)
	}
	if m.Recall < 0.33 || m.Recall > 0.34 {
		t.Fatalf("recall = %f", m.Recall)
	}
	if m.F1 <= 0 || m.F1 >= 1 {
		t.Fatalf("f1 = %f", m.F1)
	}
	if !strings.Contains(m.String(), "P=0.50") {
		t.Fatalf("String = %q", m.String())
	}
}

func TestScoreEmpty(t *testing.T) {
	g := NewGold(nil)
	m := Score(nil, g)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("empty metrics = %+v", m)
	}
}

func TestDefaultTaus(t *testing.T) {
	taus := DefaultTaus()
	if len(taus) != 20 || taus[0] != 0.05 || taus[len(taus)-1] != 1.0 {
		t.Fatalf("taus = %v", taus)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.Add("alpha", 0.123456)
	tab.Add("b", 42)
	s := tab.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "0.12") || !strings.Contains(s, "42") {
		t.Fatalf("table = %q", s)
	}
	// aligned: header row and separator present
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	md := tab.Markdown()
	if !strings.HasPrefix(md, "| name | value |") || !strings.Contains(md, "| --- | --- |") {
		t.Fatalf("markdown = %q", md)
	}
}
