// Package eval scores predicted relation alignments against a gold
// standard and renders the experiment tables. It provides the
// precision/recall/F1 accounting of the alignments an aligner accepted,
// the τ grid Table 1 runs the baselines at, and plain text/markdown
// table formatting. Acceptance itself is the aligner's (internal/core):
// nothing here re-thresholds a confidence.
package eval

import (
	"fmt"
	"math"
	"strings"

	"sofya/internal/core"
)

// Gold is a set of gold-standard subsumption pairs body ⇒ head.
type Gold struct {
	set map[string]bool
}

// NewGold builds a gold set from (body, head) IRI pairs.
func NewGold(pairs [][2]string) *Gold {
	g := &Gold{set: make(map[string]bool, len(pairs))}
	for _, p := range pairs {
		g.set[p[0]+"\x00"+p[1]] = true
	}
	return g
}

// Size is the number of gold pairs.
func (g *Gold) Size() int { return len(g.set) }

// PRF is a precision/recall/F1 triple with its contingency counts.
type PRF struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

func prf(tp, fp, fn int) PRF {
	out := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		out.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		out.Recall = float64(tp) / float64(tp+fn)
	}
	if out.Precision+out.Recall > 0 {
		out.F1 = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

// String renders the triple compactly.
func (m PRF) String() string {
	return fmt.Sprintf("P=%.2f R=%.2f F1=%.2f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}

// Score compares accepted alignments against the gold set. Duplicate
// (body, head) predictions count once.
func Score(accepted []core.Alignment, gold *Gold) PRF {
	pred := map[string]bool{}
	for _, al := range accepted {
		if !al.Accepted {
			continue
		}
		pred[al.Rule.Body+"\x00"+al.Rule.Head] = true
	}
	tp, fp := 0, 0
	for k := range pred {
		if gold.set[k] {
			tp++
		} else {
			fp++
		}
	}
	return prf(tp, fp, gold.Size()-tp)
}

// DefaultTaus is the τ grid Table 1 runs each baseline measure at.
func DefaultTaus() []float64 {
	taus := make([]float64, 0, 20)
	for t := 0.05; t < 1.0001; t += 0.05 {
		taus = append(taus, math.Round(t*100)/100)
	}
	return taus
}

// Table renders rows of cells as an aligned plain-text table with a
// header row, suitable for terminal output and EXPERIMENTS.md.
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row; cells are formatted with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	sb.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.Rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return sb.String()
}
