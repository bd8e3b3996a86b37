package sparql

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// topk.go is how an ORDER BY [OFFSET] [LIMIT] picks and orders its
// winners from an enumeration — the one definition the executor
// (selectWindow) and the federation merge (shard.orderedRows) both run,
// which is what keeps a sharded ORDER BY byte-identical to the unsharded
// engine's. The selector sees keys and enumeration order only; each
// caller stores the rows themselves, in whatever form it likes (the
// executor: ids in a flat arena; the merge: reusable term rows), at the
// payload slots the selector hands out.

// OrderSelector selects the window [offset, offset+limit) of a stable
// sort by ORDER BY keys over rows offered in enumeration order, and
// chooses how from the query's static shape:
//
//   - lone ascending RAND() (the shape of every sampling probe): entries
//     carry the bare draw — no Value, no key list — and at most
//     offset+limit of them are kept. Most sampled relations have fewer
//     matches than the fetch window, so entries are only appended until
//     the selection is full; the heap is built when the first row beyond
//     it arrives, if one does;
//   - statically total key list: the same bounded selection under
//     compareKeys with the enumeration index as the tiebreak, which makes
//     the order total and therefore equal to the stable sort;
//   - otherwise some key pairs may be incomparable, the comparator is not
//     transitive and a heap could diverge from the reference evaluator:
//     every row is kept and stable-sorted by keys alone.
//
// Without a LIMIT the first two keep every row too and sort once.
//
// An Offer returns the payload slot the caller must now fill with the
// row, or -1 when the row is rejected while the caller still owns its
// buffers. Slots count up from 0; one is handed out again only when its
// row is evicted, so a bounded selection never has more than
// offset+limit payloads live over an enumeration of any length.
//
// Selectors come from a pool, entries and all, so a probe that runs
// again finds its selection's room already grown: the caller hands it
// back with Release when the execution ends, whichever way it ends.
//
// The zero value is not usable; construct with NewOrderSelector. An
// OrderSelector is not safe for concurrent use.
type OrderSelector struct {
	desc   []bool
	rand   bool // entries order by draw, not by key list
	total  bool // (keys, enumeration index) is a total order
	offset int
	target int // offset+limit: rows that can reach the window; -1 = all

	ents   []selEntry
	keys   []Value // len(desc) per payload slot, in slot order; empty when rand
	seen   int     // rows offered so far: the next enumeration index
	heaped bool    // ents is a max-heap under order
	lo     int     // the window's first entry, once Window has cut it
}

// maxPooledScratch bounds, in elements, a selection buffer that goes
// back to its pool (a selector's entries, an execution's id arena): a
// larger one — an ORDER BY without LIMIT over a large result — is
// dropped, so a pool never pins what one outsized execution grew. The
// sampling probes' windows (200 to a few thousand rows) stay far below.
const maxPooledScratch = 1 << 13

// selectorPool recycles selectors with their entries and keys.
var selectorPool = sync.Pool{New: func() any { return new(OrderSelector) }}

type selEntry struct {
	f    float64 // the draw, when rand
	idx  int     // enumeration index
	slot int     // payload slot
}

// NewOrderSelector returns the selector for one execution: desc are the
// keys' Desc flags (not read when rand), total reports a statically
// total key list, rand the lone ascending bare RAND() (which is total),
// limit < 0 no LIMIT.
func NewOrderSelector(desc []bool, total, rand bool, offset, limit int) *OrderSelector {
	s := selectorPool.Get().(*OrderSelector)
	*s = OrderSelector{desc: desc, rand: rand, total: total, offset: offset, target: -1, ents: s.ents[:0], keys: s.keys[:0]}
	if limit >= 0 {
		s.target = offset + limit
	}
	return s
}

// Release ends the selection and hands the selector back to its pool,
// entries and cleared keys included unless they outgrew
// maxPooledScratch. Call it once, after the last Slot: neither the
// selector nor its slots may be read afterwards (the payloads, being
// the caller's, stay valid).
func (s *OrderSelector) Release() {
	if cap(s.ents) > maxPooledScratch || cap(s.keys) > maxPooledScratch {
		return
	}
	clear(s.keys)
	*s = OrderSelector{ents: s.ents[:0], keys: s.keys[:0]}
	selectorPool.Put(s)
}

// slotKeys returns the keys kept for a payload slot.
func (s *OrderSelector) slotKeys(slot int) []Value {
	w := len(s.desc)
	return s.keys[slot*w : (slot+1)*w]
}

// full reports a bounded selection that holds its offset+limit rows:
// from then on a row is admitted only by evicting the worst kept one.
func (s *OrderSelector) full() bool { return s.total && len(s.ents) == s.target }

// Empty reports a window that is empty whatever is enumerated (LIMIT 0
// without OFFSET): callers skip the enumeration, and must not offer.
func (s *OrderSelector) Empty() bool { return s.target == 0 }

// OfferDraw considers the next enumerated row of a rand selection, whose
// draw is f. Rows must be offered in enumeration order.
func (s *OrderSelector) OfferDraw(f float64) int { return s.offer(f, nil) }

// OfferKeys considers the next enumerated row of any other selection.
// keys is the caller's scratch: an admitted row's keys are copied.
func (s *OrderSelector) OfferKeys(keys []Value) int { return s.offer(0, keys) }

func (s *OrderSelector) offer(f float64, keys []Value) int {
	idx := s.seen
	s.seen++
	if !s.full() {
		slot := len(s.ents)
		s.ents = append(s.ents, selEntry{f, idx, slot})
		if !s.rand {
			s.keys = append(s.keys, keys...)
		}
		return slot
	}
	// idx exceeds every kept index, so an equal row loses the tiebreak.
	worst := s.root()
	if s.rand {
		if f >= worst.f {
			return -1
		}
	} else {
		kept := s.slotKeys(worst.slot)
		if compareKeys(keys, kept, s.desc) >= 0 {
			return -1
		}
		copy(kept, keys)
	}
	slot := worst.slot
	worst.f, worst.idx = f, idx
	s.siftDown(0)
	return slot
}

// Worst returns the payload slot of the worst kept row once a bounded
// selection is full — the row every later winner must beat — and -1
// until then, or when every row is kept.
func (s *OrderSelector) Worst() int {
	if !s.full() {
		return -1
	}
	return s.root().slot
}

// root returns the worst kept entry of a full selection: the root of
// the heap, which is built on first use (out of line, so that root
// itself inlines into the per-row offer).
func (s *OrderSelector) root() *selEntry {
	if !s.heaped {
		s.heapify()
	}
	return &s.ents[0]
}

func (s *OrderSelector) heapify() {
	s.heaped = true
	for i := len(s.ents)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Window ends the enumeration: it puts the kept rows in emission order,
// cuts OFFSET and LIMIT, and returns how many rows the window holds;
// Slot(i) is then the payload slot of its i-th row. The selector must
// not be offered rows afterwards.
func (s *OrderSelector) Window() int {
	switch {
	case s.rand:
		slices.SortFunc(s.ents, compareDraws)
	case s.total:
		slices.SortFunc(s.ents, s.order)
	default:
		// ents are in enumeration order; the stable sort with the pure key
		// comparator reproduces the reference evaluator exactly.
		sort.SliceStable(s.ents, func(i, j int) bool {
			return compareKeys(s.slotKeys(s.ents[i].slot), s.slotKeys(s.ents[j].slot), s.desc) < 0
		})
	}
	end := len(s.ents)
	if s.target >= 0 {
		end = min(end, s.target)
	}
	// Cut the end only, so that Release finds the entries' whole room.
	s.ents, s.lo = s.ents[:end], min(s.offset, end)
	return end - s.lo
}

// Slot returns the payload slot of the i-th row of the window.
func (s *OrderSelector) Slot(i int) int { return s.ents[s.lo+i].slot }

// order is the total selection order: draws or key lists first, ties to
// the row enumerated first.
func (s *OrderSelector) order(a, b selEntry) int {
	if s.rand {
		return compareDraws(a, b)
	}
	if c := compareKeys(s.slotKeys(a.slot), s.slotKeys(b.slot), s.desc); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}

// compareDraws is order for a rand selection, which needs nothing of
// the selector: the sampling shape sorts with it directly, one call a
// comparison where the method value would cost two.
func compareDraws(a, b selEntry) int {
	switch { // draws are never NaN
	case a.f < b.f:
		return -1
	case a.f > b.f:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// compareKeys is the ORDER BY key-list comparison: negative when key
// list a orders before b under the per-key Desc flags, positive for
// after, and 0 when every key pair is equal or incomparable (the
// caller's tiebreak decides).
func compareKeys(a, b []Value, desc []bool) int {
	for k := range a {
		c, ok := valuesOrder(a[k], b[k])
		if !ok || c == 0 {
			continue
		}
		if desc[k] {
			return -c
		}
		return c
	}
	return 0
}

// siftDown restores the max-heap property (the root orders last) downward
// from i.
func (s *OrderSelector) siftDown(i int) {
	ents := s.ents
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(ents) && s.order(ents[largest], ents[l]) < 0 {
			largest = l
		}
		if r < len(ents) && s.order(ents[largest], ents[r]) < 0 {
			largest = r
		}
		if largest == i {
			return
		}
		ents[i], ents[largest] = ents[largest], ents[i]
		i = largest
	}
}
