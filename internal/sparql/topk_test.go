package sparql

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// topk_test.go checks both selectors against the definition they stand
// in for: stable-sort every row by its key, then cut the window
// [offset, target). Key streams are drawn from a handful of values, so
// most comparisons are ties and the enumeration-index tiebreak decides.

// selected is one row of a selector test: its key and where it came in
// the enumeration.
type selected struct {
	key float64
	idx int
}

// referenceWindow is "stable sort by key, truncate".
func referenceWindow(keys []float64, target, offset int) []int {
	rows := make([]selected, len(keys))
	for i, k := range keys {
		rows[i] = selected{k, i}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	if target < len(rows) {
		rows = rows[:target]
	}
	var out []int
	for i := offset; i < len(rows); i++ {
		out = append(out, rows[i].idx)
	}
	return out
}

// viaTopK runs the generic selector the way streamOrdered and the merge
// drive it: probe with Admits, overwrite the worst in place once full.
func viaTopK(keys []float64, target, offset int) []int {
	topk := NewTopK[selected](target, func(a, b *selected) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.idx < b.idx
	})
	for i, k := range keys {
		cur := selected{k, i}
		if !topk.Admits(&cur) {
			continue
		}
		if topk.Full() {
			*topk.Worst() = cur
			topk.FixWorst()
		} else {
			topk.Push(cur)
		}
	}
	var out []int
	for i, s := range topk.Sorted() {
		if i >= offset {
			out = append(out, s.idx)
		}
	}
	return out
}

// viaRandTopK runs the typed selector with the enumeration index as the
// payload, and checks the slot contract on the way.
func viaRandTopK(t *testing.T, keys []float64, target, offset int) []int {
	sel := NewRandTopK(target)
	var payload []int
	for i, k := range keys {
		slot := sel.Offer(k)
		switch {
		case slot < 0:
			continue
		case slot >= target || slot > len(payload):
			t.Fatalf("row %d: slot %d with target %d and %d slots in use", i, slot, target, len(payload))
		case slot == len(payload):
			payload = append(payload, i)
		default:
			payload[slot] = i
		}
		if sel.Len() > target {
			t.Fatalf("row %d: selector holds %d rows, target %d", i, sel.Len(), target)
		}
	}
	sel.Sort()
	var out []int
	for i := offset; i < sel.Len(); i++ {
		out = append(out, payload[sel.Slot(i)])
	}
	return out
}

func TestSelectorsEqualStableSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(60)
		distinct := 1 + rng.Intn(4) // heavy duplicates
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(distinct)) / 4
		}
		for _, target := range []int{1, 1 + rng.Intn(n), n, n + 1 + rng.Intn(5)} {
			for _, offset := range []int{0, 1, target - 1} {
				want := referenceWindow(keys, target, offset)
				if got := viaTopK(keys, target, offset); !slices.Equal(got, want) {
					t.Fatalf("TopK n=%d target=%d offset=%d keys=%v:\n got %v\nwant %v", n, target, offset, keys, got, want)
				}
				if got := viaRandTopK(t, keys, target, offset); !slices.Equal(got, want) {
					t.Fatalf("RandTopK n=%d target=%d offset=%d keys=%v:\n got %v\nwant %v", n, target, offset, keys, got, want)
				}
			}
		}
	}
}
