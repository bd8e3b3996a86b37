package sparql

import (
	"cmp"
	"slices"
	"sort"
)

// topk.go is the bounded top-k selection primitive shared by the
// executor's ORDER BY path (streamOrdered) and the federation merge
// (internal/shard): keep the best `target` items under a total order,
// reject losers in O(log k) without retaining them, and emit the
// winners sorted. Both sides selecting with literally the same code is
// part of what keeps sharded ORDER BY results byte-identical to the
// unsharded engine's. TopK is the selector for any key list; RandTopK
// is the same selection for the one shape the aligner's sampling probes
// have, a single ascending RAND() key, done on 24-byte entries.

// TopK selects the `target` least items under a total `before` order
// over a stream of candidates, holding at most `target` items at any
// moment. Internally the kept items form a max-heap (the root is the
// worst kept item, the one that would be emitted last), so a candidate
// that does not order before the root is rejected in O(1) comparisons
// without ever being stored — callers reuse the candidate's buffers for
// the next row, which is what makes O(k) memory possible over an
// O(result) enumeration.
//
// `before` must be a strict total order (use an enumeration-index
// tiebreak to totalize a key comparison); with a merely partial order
// the heap selection can diverge from a reference stable sort.
//
// The zero value is not usable; construct with NewTopK. A TopK is not
// safe for concurrent use.
type TopK[T any] struct {
	items  []T
	target int
	before func(a, b *T) bool
}

// NewTopK returns a selector for the `target` least items under
// `before`. target must be positive.
func NewTopK[T any](target int, before func(a, b *T) bool) *TopK[T] {
	return &TopK[T]{target: target, before: before}
}

// Full reports whether the selection holds target items — from then on
// admission requires beating the worst kept item.
func (t *TopK[T]) Full() bool { return len(t.items) == t.target }

// Len returns the number of items currently held.
func (t *TopK[T]) Len() int { return len(t.items) }

// Admits reports whether x would enter the selection: always, until the
// selection is full; afterwards only if x orders before the worst kept
// item. It does not modify the selection.
func (t *TopK[T]) Admits(x *T) bool {
	return len(t.items) < t.target || t.before(x, &t.items[0])
}

// Worst returns the worst kept item in place (the heap root). Callers
// on the zero-allocation path overwrite it — reusing its buffers — and
// then call FixWorst. Only valid when Len() > 0.
func (t *TopK[T]) Worst() *T { return &t.items[0] }

// FixWorst restores the heap order after the caller overwrote *Worst().
func (t *TopK[T]) FixWorst() { siftDown(t.items, 0, t.before) }

// Push admits x into a non-full selection. Callers must check Admits
// (or !Full) first; pushing into a full selection panics via the
// append-beyond-target guard below.
func (t *TopK[T]) Push(x T) {
	if len(t.items) >= t.target {
		panic("sparql: TopK.Push on a full selection (use Worst/FixWorst)")
	}
	t.items = append(t.items, x)
	siftUp(t.items, len(t.items)-1, t.before)
}

// Sorted sorts the kept items into emission order (least first, under
// `before`) and returns them. The selection must not be used afterwards.
func (t *TopK[T]) Sorted() []T {
	sort.Sort(byBefore[T]{t.items, t.before})
	return t.items
}

// byBefore sorts items under before through sort.Interface: no
// reflection-built swapper as with sort.Slice, and the comparator sees
// the elements in place (slices.SortFunc would hand it copies, whose
// addresses escape through the dynamic before call).
type byBefore[T any] struct {
	items  []T
	before func(a, b *T) bool
}

func (s byBefore[T]) Len() int           { return len(s.items) }
func (s byBefore[T]) Less(i, j int) bool { return s.before(&s.items[i], &s.items[j]) }
func (s byBefore[T]) Swap(i, j int)      { s.items[i], s.items[j] = s.items[j], s.items[i] }

// siftUp restores the max-heap property (the root orders last under
// `before`) upward from i.
func siftUp[T any](s []T, i int, before func(a, b *T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&s[parent], &s[i]) {
			return
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// siftDown restores the max-heap property downward from i.
func siftDown[T any](s []T, i int, before func(a, b *T) bool) {
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && before(&s[largest], &s[l]) {
			largest = l
		}
		if r < n && before(&s[largest], &s[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		s[i], s[largest] = s[largest], s[i]
		i = largest
	}
}

// RandTopK is TopK for rows ordered by one ascending RAND() key: the
// `target` rows with the least draws, ties going to the row enumerated
// first — the order `before` gives orderedRow and mrow for that key
// list, without boxing the draw into a Value or comparing through a
// closure. It sees only the draws. Offer hands back a payload slot in
// [0, target) for each admitted row and the caller keeps the row there,
// in whatever form it likes (the executor: ids in a flat arena; the
// federation merge: reusable term rows); a slot is reused when its row
// is evicted, so at most target payloads are ever live.
//
// Most sampled relations have fewer matches than the fetch window, so
// entries are only appended until the selection is full; the heap is
// built when the first row beyond target arrives, if one does.
//
// The zero value is not usable; construct with NewRandTopK. A RandTopK
// is not safe for concurrent use.
type RandTopK struct {
	ents   []randEntry
	target int
	seen   int  // rows offered so far: the next enumeration index
	heaped bool // ents is a max-heap under compareRand
}

type randEntry struct {
	f    float64
	idx  int // enumeration index
	slot int // payload slot
}

func compareRand(a, b randEntry) int {
	switch { // draws are never NaN
	case a.f < b.f:
		return -1
	case a.f > b.f:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// NewRandTopK returns a selector for the `target` least draws. target
// must be positive.
func NewRandTopK(target int) *RandTopK {
	return &RandTopK{target: target}
}

// Offer considers the next enumerated row, whose draw is f. It returns
// the payload slot the caller must now fill with the row, or -1 when
// the row is rejected. Rows must be offered in enumeration order.
func (t *RandTopK) Offer(f float64) int {
	idx := t.seen
	t.seen++
	if len(t.ents) < t.target {
		slot := len(t.ents)
		t.ents = append(t.ents, randEntry{f, idx, slot})
		return slot
	}
	if !t.heaped {
		for i := len(t.ents)/2 - 1; i >= 0; i-- {
			siftDownRand(t.ents, i)
		}
		t.heaped = true
	}
	// idx exceeds every kept index, so an equal draw loses the tiebreak.
	worst := &t.ents[0]
	if f >= worst.f {
		return -1
	}
	slot := worst.slot
	worst.f, worst.idx = f, idx
	siftDownRand(t.ents, 0)
	return slot
}

// Sort puts the kept rows in emission order for Len and Slot. The
// selection must not be offered rows afterwards.
func (t *RandTopK) Sort() { slices.SortFunc(t.ents, compareRand) }

// Len returns the number of rows currently held.
func (t *RandTopK) Len() int { return len(t.ents) }

// Slot returns the payload slot of the i-th kept row (after Sort: the
// i-th row in emission order).
func (t *RandTopK) Slot(i int) int { return t.ents[i].slot }

// siftDownRand restores the max-heap property (the root orders last
// under compareRand) downward from i.
func siftDownRand(s []randEntry, i int) {
	n := len(s)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && compareRand(s[largest], s[l]) < 0 {
			largest = l
		}
		if r < n && compareRand(s[largest], s[r]) < 0 {
			largest = r
		}
		if largest == i {
			return
		}
		s[i], s[largest] = s[largest], s[i]
		i = largest
	}
}
