package cachestore

import (
	"io"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
)

// Interface is the store contract the engine, the peer service, and
// the facade program against. Store is its one implementation: entry
// bookkeeping under one RWMutex, and one index that guards itself with
// its own RWMutex (see Store.mu for the lock order). Lookups take only
// the index's read lock, never the store lock.
// Insert-at-capacity, Touch and Remove cost O(log n) under the writer
// lock: live entries sit in a min-heap keyed by the policy order, so
// the victim is the heap root. TTL expiry pops a FIFO of insertion
// deadlines in O(1) amortized. Label reads in place, copying nothing.
// The interface stays so callers can wrap a store, e.g. to time each
// call.
type Interface interface {
	// Insert stores a recognition result and returns its ID.
	Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error)
	// Get returns a snapshot of the entry and whether it is live.
	Get(id lsh.ID) (Entry, bool)
	// Touch records a cache hit on id.
	Touch(id lsh.ID)
	// Label resolves id to its label if live (shape of lsh.Vote's
	// resolver).
	Label(id lsh.ID) (string, bool)
	// Nearest returns up to k neighbors of q among live entries.
	Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error)
	// NearestInto is Nearest appending into dst's backing array.
	NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error)
	// Remove deletes id.
	Remove(id lsh.ID)
	// Confirm records a shadow-audit agreement on id.
	Confirm(id lsh.ID)
	// Refute records a shadow-audit disagreement on id; reports
	// whether this call quarantined the entry.
	Refute(id lsh.ID) bool
	// Parole records the outcome of re-verifying a quarantined entry.
	Parole(id lsh.ID, ok bool) ParoleOutcome
	// Quarantined reports whether id is currently quarantined.
	Quarantined(id lsh.ID) bool
	// QuarantineStats returns quarantine lifecycle counters.
	QuarantineStats() QuarantineStats
	// Len returns the live entry count.
	Len() int
	// Evictions and Expiries count removals by cause.
	Evictions() int
	Expiries() int
	// Stats returns an occupancy/churn summary.
	Stats() StoreStats
	// Snapshot returns copies of all live entries.
	Snapshot() []Entry
	// Export writes a checksummed snapshot; Import reads one back.
	Export(w io.Writer) error
	Import(r io.Reader) (int, error)
}

var _ Interface = (*Store)(nil)
