package lsh

import (
	"math"

	"approxcache/internal/feature"
)

// Bounded top-k selection for the query hot path. The previous
// implementation collected every candidate and fully sorted the set per
// query; for k ≪ candidates that is wasted work and a fresh allocation
// per lookup. kSelector keeps only the k best neighbors seen so far —
// by insertion into a small sorted buffer for typical cache k, or a
// max-heap once k is large — and produces exactly the same result as
// sort-everything-then-truncate under the (distance, ID) total order.

// insertionSelectK is the largest k served by the sorted-buffer
// strategy; beyond it the selector switches to a max-heap, whose
// replace-root is O(log k) instead of O(k).
const insertionSelectK = 32

// neighborWorse reports whether a ranks strictly after b: farther, or
// equally far with a larger ID. IDs are unique within a query, so this
// is a strict total order and top-k selection has a unique answer.
func neighborWorse(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// kSelector accumulates neighbors, retaining the k best. The zero value
// is not usable; call reset first. buf never exceeds k entries, so a
// caller-provided buffer of capacity k makes the whole selection
// allocation-free.
type kSelector struct {
	k      int
	buf    []Neighbor
	heaped bool
}

// reset prepares the selector to keep the k best, accumulating into
// buf's backing array.
func (s *kSelector) reset(k int, buf []Neighbor) {
	s.k = k
	s.buf = buf[:0]
	s.heaped = false
}

// add offers one neighbor to the selection.
func (s *kSelector) add(n Neighbor) {
	if len(s.buf) < s.k {
		s.buf = append(s.buf, n)
		if s.k <= insertionSelectK {
			// Keep buf sorted ascending so the worst is always last.
			for i := len(s.buf) - 1; i > 0 && neighborWorse(s.buf[i-1], s.buf[i]); i-- {
				s.buf[i-1], s.buf[i] = s.buf[i], s.buf[i-1]
			}
		} else if len(s.buf) == s.k {
			s.heapify()
		}
		return
	}
	if s.heaped {
		if neighborWorse(n, s.buf[0]) {
			return // not better than the current worst
		}
		s.buf[0] = n
		s.siftDown(0, len(s.buf))
		return
	}
	if neighborWorse(n, s.buf[len(s.buf)-1]) {
		return
	}
	s.buf[len(s.buf)-1] = n
	for i := len(s.buf) - 1; i > 0 && neighborWorse(s.buf[i-1], s.buf[i]); i-- {
		s.buf[i-1], s.buf[i] = s.buf[i], s.buf[i-1]
	}
}

// bound returns the distance a new neighbor must not exceed to enter
// the selection: +Inf until k neighbors are held, then the current
// k-th best distance. A neighbor at exactly the bound may still enter
// on a smaller ID, so only strictly larger distances are rejectable.
func (s *kSelector) bound() float64 {
	if len(s.buf) < s.k {
		return math.Inf(1)
	}
	if s.heaped {
		return s.buf[0].Distance
	}
	return s.buf[len(s.buf)-1].Distance
}

// addScored scores vec against q and offers it as id. The squared
// distance is computed with the early-abandon kernel bounded by the
// current k-th best: a candidate whose partial sum already exceeds
// the bound is dropped without finishing it, and one that completes
// carries exactly MustSqEuclidean's value, so the selection is the
// one add would make with full distances.
func (s *kSelector) addScored(q, vec feature.Vector, id ID) {
	b := s.bound()
	d := feature.SqEuclideanBounded(q, vec, b)
	if d > b {
		return
	}
	s.add(Neighbor{ID: id, Distance: d})
}

// scoreSlots offers every listed slot of index x, scored against q.
// Caller holds x.mu for reading.
// Slots are scored four at a time with the four-lane kernel, bounded
// by the k-th best at the start of each group; a group abandoned there
// holds no neighbor that could enter. A completed lane carries exactly
// MustSqEuclidean's value, so the selection is the one add would make
// with full distances. The tail goes through addScored.
func (s *kSelector) scoreSlots(q feature.Vector, x *HyperplaneIndex, slots []int32) {
	i := 0
	for ; i+4 <= len(slots); i += 4 {
		g := slots[i : i+4 : i+4]
		b := s.bound()
		d0, d1, d2, d3 := feature.SqEuclideanBounded4(q,
			x.slotVec(g[0]), x.slotVec(g[1]),
			x.slotVec(g[2]), x.slotVec(g[3]), b)
		if d0 <= b {
			s.add(Neighbor{ID: x.slotID[g[0]], Distance: d0})
		}
		if d1 <= b {
			s.add(Neighbor{ID: x.slotID[g[1]], Distance: d1})
		}
		if d2 <= b {
			s.add(Neighbor{ID: x.slotID[g[2]], Distance: d2})
		}
		if d3 <= b {
			s.add(Neighbor{ID: x.slotID[g[3]], Distance: d3})
		}
	}
	for _, slot := range slots[i:] {
		s.addScored(q, x.slotVec(slot), x.slotID[slot])
	}
}

// finish returns the selected neighbors in increasing (distance, ID)
// order. The returned slice aliases the reset buffer.
func (s *kSelector) finish() []Neighbor {
	if !s.heaped {
		if s.k <= insertionSelectK {
			return s.buf // insertion path keeps buf sorted
		}
		// Large k that never filled: buf is raw append order.
		s.heapify()
	}
	// Heap-sort in place: repeatedly move the max to the end.
	for end := len(s.buf) - 1; end > 0; end-- {
		s.buf[0], s.buf[end] = s.buf[end], s.buf[0]
		s.siftDown(0, end)
	}
	return s.buf
}

// heapify turns buf into a max-heap under neighborWorse.
func (s *kSelector) heapify() {
	s.heaped = true
	for i := len(s.buf)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(s.buf))
	}
}

// siftDown restores the max-heap property for the subtree rooted at i,
// considering only buf[:end].
func (s *kSelector) siftDown(i, end int) {
	for {
		l := 2*i + 1
		if l >= end {
			return
		}
		worst := l
		if r := l + 1; r < end && neighborWorse(s.buf[r], s.buf[l]) {
			worst = r
		}
		if !neighborWorse(s.buf[worst], s.buf[i]) {
			return
		}
		s.buf[i], s.buf[worst] = s.buf[worst], s.buf[i]
		i = worst
	}
}
