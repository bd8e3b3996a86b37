package trace

import (
	"sort"
)

// LayerStats aggregates the spans of one layer.
type LayerStats struct {
	Spans int64
	// DurNS sums span durations; SelfNS sums each span's duration minus
	// the part of it its direct children cover.
	DurNS, SelfNS int64
	// Rows sums rows that crossed the boundary; ChildRows the rows its
	// direct children reported; Children counts direct children.
	Rows, ChildRows, Children int64
	// Streams counts streamed executions, Early those closed by the
	// caller before exhaustion.
	Streams, Early int64
	// Fanned counts spans with two or more children; StragglerNS sums,
	// over those, slowest child minus median child.
	Fanned, StragglerNS int64
	// WallNS is the layer's share of op wall time: per op, the time
	// covered by this layer's spans but by no deeper layer's. Summed
	// over layers (with LayerOp holding the time no span covers) it
	// equals the op wall time.
	WallNS int64
}

// Summary is what the analysis extracts from a span log.
type Summary struct {
	Spans    int64 // completed spans, ops included
	Ops      int64
	OpWallNS int64
	// ProbeUnionNS sums, per op, the wall time covered by its direct
	// children (the aligner waiting on at least one probe); ProbeDurNS
	// sums the children's durations.
	ProbeUnionNS, ProbeDurNS int64
	// ProbesByClass counts op children by probe class.
	ProbesByClass [NumClasses]int64
	// Misparented counts spans that hang in the wrong place: outside any
	// op, under no recorded span, or under a span of another layer than
	// the nearest shallower one that recorded anything. Every stack the
	// benchmark builds is one chain of layers, so a correct trace has
	// none; a dropped span header or a call that lost its context shows
	// here, where it would otherwise pass as self time of the layer
	// above.
	Misparented int64
	Layers      [NumLayers]LayerStats
	// Transport and handler wire counts.
	TTFBNS, BodyNS, ReqBytes, RespBytes, Flushes int64
}

type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs clipped to [lo, hi].
// It reorders ivs.
func unionLen(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, end), min(iv.hi, hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// Analyze computes the per-layer aggregates of a span log (as returned
// by Tracer.Spans: indexed by ID, holes marked with Layer NumLayers).
func Analyze(spans []Span) *Summary {
	sum := &Summary{}
	children := make([][]int32, len(spans))
	byOp := make(map[int32][]int32)
	// above[l] is the nearest shallower layer with any span.
	var present [NumLayers]bool
	for i := range spans {
		if l := spans[i].Layer; l < NumLayers {
			present[l] = true
		}
	}
	var above [NumLayers]Layer
	for l, last := LayerOp, LayerOp; l < NumLayers; l++ {
		above[l] = last
		if present[l] {
			last = l
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Layer >= NumLayers {
			continue
		}
		sum.Spans++
		if s.Layer != LayerOp && (s.Op < 0 || s.Parent < 0 || int(s.Parent) >= len(spans) || spans[s.Parent].Layer != above[s.Layer]) {
			sum.Misparented++
		}
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
		if s.Op >= 0 && s.Layer != LayerOp {
			byOp[s.Op] = append(byOp[s.Op], s.ID)
		}
	}

	var ivs []interval
	var durs []int64
	for i := range spans {
		s := &spans[i]
		if s.Layer >= NumLayers {
			continue
		}
		ls := &sum.Layers[s.Layer]
		ls.Spans++
		ls.DurNS += s.Dur()
		ls.Rows += int64(s.Rows)
		if s.Stream {
			ls.Streams++
			if s.Early {
				ls.Early++
			}
		}
		ivs, durs = ivs[:0], durs[:0]
		for _, c := range children[s.ID] {
			cs := &spans[c]
			ivs = append(ivs, interval{cs.Start, cs.End})
			durs = append(durs, cs.Dur())
			ls.ChildRows += int64(cs.Rows)
		}
		ls.Children += int64(len(ivs))
		covered := unionLen(ivs, s.Start, s.End)
		ls.SelfNS += s.Dur() - covered
		if len(durs) >= 2 {
			sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
			ls.Fanned++
			ls.StragglerNS += durs[len(durs)-1] - durs[(len(durs)-1)/2]
		}
		switch s.Layer {
		case LayerOp:
			sum.Ops++
			sum.OpWallNS += s.Dur()
			sum.ProbeUnionNS += covered
			for _, c := range children[s.ID] {
				sum.ProbeDurNS += spans[c].Dur()
				sum.ProbesByClass[spans[c].Class]++
			}
			sum.wallShares(spans, s, byOp[s.ID])
		case LayerTransport:
			sum.TTFBNS += s.Mid - s.Start
			sum.BodyNS += s.End - s.Mid
			sum.ReqBytes += int64(s.ReqBytes)
			sum.RespBytes += int64(s.RespBytes)
		case LayerHandler:
			sum.Flushes += int64(s.Flushes)
		}
	}
	return sum
}

// wallShares attributes one op's wall time to layers: cover[L] is the
// time covered by spans of layer L or deeper, so cover[L] − cover[L+1]
// is the time during which L was the deepest layer at work. The
// differences telescope to the op's wall time.
func (sum *Summary) wallShares(spans []Span, op *Span, members []int32) {
	var perLayer [NumLayers][]interval
	for _, id := range members {
		s := &spans[id]
		perLayer[s.Layer] = append(perLayer[s.Layer], interval{s.Start, s.End})
	}
	var cover [NumLayers + 1]int64
	var acc []interval
	for l := NumLayers - 1; l > LayerOp; l-- {
		acc = append(acc, perLayer[l]...)
		cover[l] = unionLen(acc, op.Start, op.End)
	}
	cover[LayerOp] = op.Dur()
	for l := LayerOp; l < NumLayers; l++ {
		sum.Layers[l].WallNS += cover[l] - cover[l+1]
	}
}
