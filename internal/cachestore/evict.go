package cachestore

import "approxcache/internal/lsh"

// Eviction and expiry bookkeeping. Every live entry sits in an indexed
// binary min-heap ordered by the policy's "worse" relation, so the
// next victim is always heap[0]: picking it is O(1) and every
// operation that changes an entry's rank (insert, touch, remove)
// restores the heap in O(log n), instead of scanning all n entries
// under the writer mutex on each insert at capacity. TTL expiry uses a
// FIFO of insertion deadlines: the TTL is one constant, so insertion
// order is expiry order and the expired entries are always a prefix of
// the queue.

// item is a live entry plus its position in the eviction heap.
type item struct {
	Entry
	pos int
}

// worse reports whether a should be evicted before b under policy p:
// the policy key first (hits for LFU, saved-cost × (hits+1) for
// cost-aware), then least recent access, then lowest ID. IDs are
// unique, so this is a strict total order and the victim is unique.
func worse(p Policy, a, b *Entry) bool {
	switch p {
	case LFU:
		if a.Hits != b.Hits {
			return a.Hits < b.Hits
		}
	case CostAware:
		av := float64(a.SavedCost) * float64(a.Hits+1)
		bv := float64(b.SavedCost) * float64(b.Hits+1)
		if av != bv {
			return av < bv
		}
	}
	if !a.LastAccess.Equal(b.LastAccess) {
		return a.LastAccess.Before(b.LastAccess)
	}
	return a.ID < b.ID
}

// evictHeap is a container/heap min-heap of live items under worse.
// Each item records its own index, so removal and re-ranking of an
// arbitrary entry cost O(log n).
type evictHeap struct {
	policy Policy
	items  []*item
}

func (h *evictHeap) Len() int { return len(h.items) }

func (h *evictHeap) Less(i, j int) bool {
	return worse(h.policy, &h.items[i].Entry, &h.items[j].Entry)
}

func (h *evictHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].pos = i
	h.items[j].pos = j
}

func (h *evictHeap) Push(x any) {
	it := x.(*item)
	it.pos = len(h.items)
	h.items = append(h.items, it)
}

func (h *evictHeap) Pop() any {
	n := len(h.items) - 1
	it := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	return it
}

// expiryRec is one FIFO record: an inserted ID and its deadline as
// unix nanos. Records of entries removed for other reasons stay queued
// until they reach the head or a compaction drops them.
type expiryRec struct {
	id       lsh.ID
	deadline int64
}

// expiryFIFO is the TTL queue: records are appended in insertion order
// and popped from head.
type expiryFIFO struct {
	recs []expiryRec
	head int
}

// peek returns the oldest queued record.
func (q *expiryFIFO) peek() (expiryRec, bool) {
	if q.head == len(q.recs) {
		return expiryRec{}, false
	}
	return q.recs[q.head], true
}

func (q *expiryFIFO) pop() { q.head++ }

// push appends a record. When the backing array is full it first
// compacts in place, dropping popped records and records whose entry
// is no longer live, and doubles the array only if that freed less
// than half of it. At most capacity records are live, so the queue
// stays within a small multiple of the store capacity and the
// compaction cost is amortized O(1) per push.
func (q *expiryFIFO) push(r expiryRec, live func(lsh.ID) bool) {
	if len(q.recs) == cap(q.recs) && len(q.recs) > 0 {
		kept := q.recs[:0]
		for _, rec := range q.recs[q.head:] {
			if live(rec.id) {
				kept = append(kept, rec)
			}
		}
		q.head = 0
		if len(kept) > cap(q.recs)/2 {
			grown := make([]expiryRec, len(kept), 2*cap(q.recs))
			copy(grown, kept)
			kept = grown
		}
		q.recs = kept
	}
	q.recs = append(q.recs, r)
}
