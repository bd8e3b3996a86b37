package sparql

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// topk_test.go checks OrderSelector, in each of its three strategies,
// against the definition it stands in for: stable-sort every row by its
// keys alone, truncate to offset+limit, cut the offset. Keys are drawn
// from a handful of values, so most comparisons are ties and the
// enumeration-index tiebreak decides.

// referenceWindow is "stable sort by keys, truncate, skip": the
// enumeration indexes of the window's rows. limit < 0 is no LIMIT.
func referenceWindow(rows [][]Value, desc []bool, offset, limit int) []int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return compareKeys(rows[idx[i]], rows[idx[j]], desc) < 0 })
	if limit >= 0 {
		idx = idx[:min(offset+limit, len(idx))]
	}
	return idx[min(offset, len(idx)):]
}

// selectorShape is one strategy's static shape and key generator.
type selectorShape struct {
	name        string
	total, rand bool
	nkeys       func(*rand.Rand) int
	key         func(*rand.Rand) Value
}

var selectorShapes = []selectorShape{
	{"rand", true, true,
		func(*rand.Rand) int { return 1 },
		func(r *rand.Rand) Value { return numValue(float64(r.Intn(4)) / 4) }},
	{"total", true, false,
		func(r *rand.Rand) int { return 1 + r.Intn(3) },
		func(r *rand.Rand) Value { return numValue(float64(r.Intn(3))) }},
	// Numbers, strings, booleans and errors do not compare with each
	// other: the comparator is not transitive, only the stable sort is
	// the reference's.
	{"stable", false, false,
		func(r *rand.Rand) int { return 1 + r.Intn(3) },
		func(r *rand.Rand) Value {
			switch r.Intn(4) {
			case 0:
				return numValue(float64(r.Intn(3)))
			case 1:
				return strValue(string(rune('a' + r.Intn(3))))
			case 2:
				return boolValue(r.Intn(2) == 0)
			}
			return errValue()
		}},
}

// viaSelector runs the selector with the enumeration index as the
// payload, the way selectWindow and the merge drive it, and checks the
// slot contract and Worst on the way.
func viaSelector(t *testing.T, sh selectorShape, rows [][]Value, desc []bool, offset, limit int) []int {
	var sel OrderSelector
	sel.Reset(desc, sh.total, sh.rand, offset, limit)
	if sel.Empty() != (limit == 0 && offset == 0) {
		t.Fatalf("Empty() = %v with offset %d limit %d", sel.Empty(), offset, limit)
	}
	if sel.Empty() {
		return nil
	}
	bounded := sh.total && limit >= 0
	var payload []int
	for i, keys := range rows {
		var slot int
		if sh.rand {
			slot = sel.OfferDraw(keys[0].n)
		} else {
			slot = sel.OfferKeys(slices.Clone(keys)) // a scratch the selector must not keep
		}
		switch {
		case slot < 0 && !bounded:
			t.Fatalf("row %d rejected by a selection that keeps every row", i)
		case slot < 0:
		case slot > len(payload) || bounded && slot >= offset+limit:
			t.Fatalf("row %d: slot %d with %d slots in use, offset %d limit %d", i, slot, len(payload), offset, limit)
		case slot == len(payload):
			payload = append(payload, i)
		case !bounded:
			t.Fatalf("row %d: slot %d handed out twice by a selection that keeps every row", i, slot)
		default:
			payload[slot] = i
		}
		// Worst is the last row of the stable sort of what was offered so
		// far, once that many rows are kept; a slot given away while its
		// row was still among the winners would show here or in the window.
		worst := sel.Worst()
		if full := bounded && i+1 >= offset+limit; full != (worst >= 0) {
			t.Fatalf("row %d: Worst() = %d, full = %v", i, worst, full)
		} else if full {
			kept := referenceWindow(rows[:i+1], desc, 0, offset+limit)
			if want := kept[len(kept)-1]; payload[worst] != want {
				t.Fatalf("row %d: worst kept row is %d, want %d", i, payload[worst], want)
			}
		}
	}
	out := make([]int, sel.Window())
	for i := range out {
		out[i] = payload[sel.Slot(i)]
	}
	return out
}

func TestSelectorsEqualStableSortTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range selectorShapes {
		t.Run(sh.name, func(t *testing.T) {
			for round := 0; round < 100; round++ {
				n := 1 + rng.Intn(60)
				desc := make([]bool, sh.nkeys(rng))
				for i := range desc {
					desc[i] = !sh.rand && rng.Intn(2) == 0
				}
				rows := make([][]Value, n)
				for i := range rows {
					rows[i] = make([]Value, len(desc))
					for k := range rows[i] {
						rows[i][k] = sh.key(rng)
					}
				}
				mid := 1 + rng.Intn(n)
				for _, offset := range []int{0, 1, mid, n + 2} {
					for _, limit := range []int{-1, 0, 1, mid, n + 1 + rng.Intn(5)} {
						want := referenceWindow(rows, desc, offset, limit)
						got := viaSelector(t, sh, rows, desc, offset, limit)
						if !slices.Equal(got, want) {
							t.Fatalf("n=%d offset=%d limit=%d desc=%v rows=%v:\n got %v\nwant %v", n, offset, limit, desc, rows, got, want)
						}
					}
				}
			}
		})
	}
}
