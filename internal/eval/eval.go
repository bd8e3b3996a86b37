// Package eval scores predicted relation alignments against a gold
// standard and renders the experiment tables. It provides the
// precision/recall/F1 accounting behind Table 1, post-hoc threshold
// sweeps (the paper selects the τ with the best average F1), and plain
// text/markdown table formatting.
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

// ScoreAt re-thresholds the full candidate list post hoc: a rule counts
// as predicted when its confidence ≥ tau, its support ≥ minSupport, and
// (when respectUBS) its recorded contradictions stay below
// minContradictions. This matches the paper's methodology of choosing τ
// after the fact.
func ScoreAt(all []core.Alignment, gold *Gold, tau float64, minSupport int, respectUBS bool, minContradictions int) PRF {
	pred := map[string]bool{}
	for _, al := range all {
		if al.Confidence < tau || al.Support < minSupport {
			continue
		}
		if respectUBS && al.Contradictions >= minContradictions {
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

// SweepPoint is one threshold evaluation.
type SweepPoint struct {
	Tau float64
	PRF PRF
}

// SweepThresholds scores the candidate list at each τ.
func SweepThresholds(all []core.Alignment, gold *Gold, taus []float64, minSupport int) []SweepPoint {
	out := make([]SweepPoint, 0, len(taus))
	for _, tau := range taus {
		out = append(out, SweepPoint{Tau: tau, PRF: ScoreAt(all, gold, tau, minSupport, false, 1)})
	}
	return out
}

// BestAvgF1 picks the τ that maximizes the mean F1 across several
// directions' candidate lists — the paper's selection criterion ("we
// have selected the thresholds τ that led to the highest average F1
// score for both ways implications").
func BestAvgF1(directions [][]core.Alignment, golds []*Gold, taus []float64, minSupport int) (float64, []PRF) {
	if len(directions) != len(golds) {
		panic("eval: directions and golds must pair up")
	}
	bestTau, bestAvg := 0.0, math.Inf(-1)
	var bestPRFs []PRF
	for _, tau := range taus {
		var sum float64
		prfs := make([]PRF, len(directions))
		for i := range directions {
			prfs[i] = ScoreAt(directions[i], golds[i], tau, minSupport, false, 1)
			sum += prfs[i].F1
		}
		avg := sum / float64(len(directions))
		if avg > bestAvg {
			bestAvg, bestTau, bestPRFs = avg, tau, prfs
		}
	}
	return bestTau, bestPRFs
}

// DefaultTaus is the sweep grid used by the experiments.
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
