// Package strsim provides the string-similarity machinery SOFYA uses to
// align entity–literal relations (§2.2 of the paper: "If r_sub is an
// entity-literal relation, we retrieve from K facts of the samples and
// apply string similarity functions to align the literals").
//
// It implements the classical edit-based measures (Jaro, Jaro-Winkler),
// the n-gram profiles the candidate index posts, and a datatype-aware
// LiteralMatcher that short-circuits numeric and date literals through
// value comparison before falling back to string similarity — which is
// what makes "1815-12-10" match "10 December 1815".
package strsim

import (
	"strconv"
	"strings"
	"unicode"
)

// Jaro returns the Jaro similarity in [0,1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max2(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	aMatch := make([]bool, len(ra))
	bMatch := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || ra[i] != rb[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// transpositions
	trans := 0
	j := 0
	for i := range ra {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a common prefix
// (up to 4 runes), with the standard scaling factor 0.1.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func ngrams(s string, n int) []string {
	r := []rune(strings.ToLower(s))
	if len(r) < n {
		return nil
	}
	out := make([]string, 0, len(r)-n+1)
	for i := 0; i+n <= len(r); i++ {
		out = append(out, string(r[i:i+n]))
	}
	return out
}

// Normalize lower-cases, trims, and collapses runs of whitespace and
// punctuation into single spaces — the canonical form compared by the
// literal matcher's exact pass.
func Normalize(s string) string {
	var sb strings.Builder
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(r)
			lastSpace = false
		} else if !lastSpace {
			sb.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimSpace(sb.String())
}

func max2(a, b int) int {
	if b > a {
		return b
	}
	return a
}

// ParseNumber attempts a numeric read of a lexical form, tolerating
// surrounding whitespace and thousands separators.
func ParseNumber(s string) (float64, bool) {
	clean := strings.TrimSpace(strings.ReplaceAll(s, ",", ""))
	if clean == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(clean, 64)
	return f, err == nil
}
