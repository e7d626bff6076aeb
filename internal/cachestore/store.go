// Package cachestore implements the in-memory store behind the
// approximate cache: feature-keyed entries, capacity-bounded eviction
// (LRU, LFU, or cost-aware) in O(log n) per operation, and TTL expiry
// in O(1) amortized. Entries are mirrored into a nearest-neighbor index
// (internal/lsh) so lookups are approximate while bookkeeping stays
// exact.
package cachestore

import (
	"container/heap"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// Policy selects the eviction policy.
type Policy int

// Supported eviction policies.
const (
	// LRU evicts the least recently used entry.
	LRU Policy = iota + 1
	// LFU evicts the least frequently used entry, breaking ties by
	// recency.
	LFU
	// CostAware evicts the entry with the smallest expected saving,
	// estimated as saved-cost × (hits + 1), breaking ties by recency.
	// This is the Potluck-style "value of cached computation" policy.
	CostAware
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case CostAware:
		return "cost-aware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Entry is one cached recognition result. Copies returned by the store
// are snapshots; mutating them does not affect the cache.
type Entry struct {
	ID         lsh.ID
	Vec        feature.Vector
	Label      string
	Confidence float64
	// Source records where the result came from ("dnn", "peer", ...).
	Source string
	// SavedCost is the computation this entry avoids on a hit
	// (typically the DNN inference latency).
	SavedCost  time.Duration
	InsertedAt time.Time
	LastAccess time.Time
	Hits       int
	// Confirms and Refutes count shadow-audit outcomes: audits whose
	// DNN label agreed (confirm) or disagreed (refute) with this
	// entry. A confirm forgives one outstanding refute; neither
	// counter ever goes negative.
	Confirms int
	Refutes  int
	// ParoleFails counts failed re-verifications while quarantined.
	ParoleFails int
	// Quarantined marks an entry pulled from the candidate index:
	// it no longer appears in Nearest results or kNN votes, and
	// Label refuses to resolve it, until a parole re-verification
	// reinstates it.
	Quarantined bool
}

// Config parameterizes a Store.
type Config struct {
	// Capacity is the maximum number of entries. Must be positive.
	Capacity int
	// Policy selects the eviction policy. Defaults to LRU when zero.
	Policy Policy
	// TTL expires entries this long after insertion. Zero disables
	// expiry.
	TTL time.Duration
	// QuarantineThreshold quarantines an entry once its outstanding
	// refute count (refutes minus forgiven ones) reaches this value.
	// Zero disables quarantine: refutes are still counted but never
	// act.
	QuarantineThreshold int
	// ParoleFailLimit evicts a quarantined entry after this many
	// failed parole re-verifications. Zero keeps the default (2)
	// when quarantine is enabled.
	ParoleFailLimit int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("cachestore: capacity must be positive, got %d", c.Capacity)
	}
	if c.QuarantineThreshold < 0 {
		return fmt.Errorf("cachestore: quarantine threshold must be non-negative, got %d", c.QuarantineThreshold)
	}
	if c.ParoleFailLimit < 0 {
		return fmt.Errorf("cachestore: parole fail limit must be non-negative, got %d", c.ParoleFailLimit)
	}
	switch c.Policy {
	case 0, LRU, LFU, CostAware:
		return nil
	default:
		return fmt.Errorf("cachestore: unknown policy %d", int(c.Policy))
	}
}

// Store is a capacity-bounded, TTL-aware entry store mirrored into a
// nearest-neighbor index. Store is safe for concurrent use.
type Store struct {
	cfg   Config
	clock simclock.Clock
	index lsh.Index

	// mu guards the entry bookkeeping. Lock order: mu first, then the
	// index's own lock. Every method that changes the index (insert,
	// evict, expire, quarantine, parole, import) does so while holding
	// mu; the index never calls back into the store, and lookups take
	// the index lock without mu.
	mu      sync.RWMutex
	entries map[lsh.ID]*item
	// victims orders every live entry (quarantined ones included) by
	// eviction priority; expiry queues insertion deadlines when TTL is
	// on. Both are guarded by mu.
	victims evictHeap
	expiry  expiryFIFO
	nextID  lsh.ID
	// nlive/evictions/expiries are atomics so the observability reads
	// (Len, Evictions, Expiries — polled by metrics scrapes and node
	// printouts) never take the store lock. Only lock holders write
	// them.
	nlive     atomic.Int64
	evictions atomic.Int64
	expiries  atomic.Int64
	// minExpiry is the deadline at the head of the expiry queue as
	// unix nanos (0 = none). Lookups consult it lock-free: until the
	// clock passes it, nothing can be expired and no lock is taken.
	// It may run stale-low after a removal, which costs at most one
	// wasted purge that then advances it.
	minExpiry atomic.Int64
	// Quarantine lifecycle counters (cumulative).
	qTotal   int // entries ever quarantined
	qParoled int // quarantined entries reinstated by parole
	qEvicted int // quarantined entries evicted at the parole-fail limit
}

// New builds a Store over index using clock for all timing.
func New(cfg Config, index lsh.Index, clock simclock.Clock) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if index == nil {
		return nil, fmt.Errorf("cachestore: nil index")
	}
	if clock == nil {
		return nil, fmt.Errorf("cachestore: nil clock")
	}
	if cfg.Policy == 0 {
		cfg.Policy = LRU
	}
	if cfg.QuarantineThreshold > 0 && cfg.ParoleFailLimit == 0 {
		cfg.ParoleFailLimit = 2
	}
	return &Store{
		cfg:     cfg,
		clock:   clock,
		index:   index,
		entries: make(map[lsh.ID]*item, cfg.Capacity),
		victims: evictHeap{policy: cfg.Policy, items: make([]*item, 0, cfg.Capacity)},
		nextID:  1,
	}, nil
}

// Len returns the number of live entries. Lock-free.
func (s *Store) Len() int {
	return int(s.nlive.Load())
}

// Evictions returns how many entries capacity pressure has evicted.
// Lock-free.
func (s *Store) Evictions() int {
	return int(s.evictions.Load())
}

// Expiries returns how many entries TTL expiry has removed. Lock-free.
func (s *Store) Expiries() int {
	return int(s.expiries.Load())
}

// Insert stores a new recognition result and returns its ID, evicting
// per policy if the store is full.
func (s *Store) Insert(vec feature.Vector, label string, confidence float64, source string, savedCost time.Duration) (lsh.ID, error) {
	if len(vec) == 0 {
		return 0, fmt.Errorf("cachestore: empty feature vector")
	}
	if label == "" {
		return 0, fmt.Errorf("cachestore: empty label")
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// The clock is read under the lock so insertion times never
	// decrease in queue order: the expiry FIFO relies on it.
	now := s.clock.Now()
	s.expireLocked(now)
	for len(s.entries) >= s.cfg.Capacity && s.victims.Len() > 0 {
		s.removeLocked(s.victims.items[0])
		s.evictions.Add(1)
	}
	id := s.nextID
	s.nextID++
	it := &item{Entry: Entry{
		ID:         id,
		Vec:        vec.Clone(),
		Label:      label,
		Confidence: confidence,
		Source:     source,
		SavedCost:  savedCost,
		InsertedAt: now,
		LastAccess: now,
	}}
	if err := s.index.Insert(id, it.Vec); err != nil {
		return 0, fmt.Errorf("index insert: %w", err)
	}
	s.entries[id] = it
	heap.Push(&s.victims, it)
	s.nlive.Add(1)
	if s.cfg.TTL > 0 {
		exp := now.Add(s.cfg.TTL).UnixNano()
		if exp == 0 {
			exp = 1 // 0 means "no deadline"; off by 1ns conservative
		}
		s.expiry.push(expiryRec{id: id, deadline: exp}, s.liveLocked)
		if s.minExpiry.Load() == 0 {
			s.minExpiry.Store(exp)
		}
	}
	return id, nil
}

func (s *Store) liveLocked(id lsh.ID) bool {
	_, ok := s.entries[id]
	return ok
}

// Get returns a snapshot of the entry and whether it is live (present
// and unexpired). Get does not count as a use for eviction purposes.
func (s *Store) Get(id lsh.ID) (Entry, bool) {
	now := s.clock.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, ok := s.entries[id]
	if !ok || s.expiredLocked(&it.Entry, now) {
		return Entry{}, false
	}
	return snapshotEntry(&it.Entry), true
}

// snapshotEntry copies e, including its feature vector, so callers can
// never mutate store internals.
func snapshotEntry(e *Entry) Entry {
	out := *e
	out.Vec = e.Vec.Clone()
	return out
}

// Touch records a cache hit on id, updating recency and frequency and
// re-ranking the entry for eviction in O(log n).
func (s *Store) Touch(id lsh.ID) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, ok := s.entries[id]; ok {
		it.LastAccess = now
		it.Hits++
		heap.Fix(&s.victims, it.pos)
	}
}

// Label resolves id to its label if the entry is live. It matches the
// callback shape of lsh.Vote. Quarantined entries do not resolve:
// they are already absent from the candidate index, but stale IDs
// held by callers (peer answers, in-flight votes) must not revive a
// suspect label either. Unlike Get, Label copies no vector: lsh.Vote
// calls it once per neighbor.
func (s *Store) Label(id lsh.ID) (string, bool) {
	now := s.clock.Now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	it, ok := s.entries[id]
	if !ok || it.Quarantined || s.expiredLocked(&it.Entry, now) {
		return "", false
	}
	return it.Label, true
}

// Nearest returns up to k neighbors of q among live entries, ordered by
// distance. Expired entries are removed before searching.
func (s *Store) Nearest(q feature.Vector, k int) ([]lsh.Neighbor, error) {
	return s.NearestInto(q, k, nil)
}

// NearestInto is Nearest writing into dst's backing array. With a
// TTL-free store over an IntoIndex — the standard pipeline shape — a
// lookup takes no store lock and performs no allocation; it holds only
// the index's read lock, so lookups run in parallel with each other and
// wait only for an index write in progress.
func (s *Store) NearestInto(q feature.Vector, k int, dst []lsh.Neighbor) ([]lsh.Neighbor, error) {
	s.purgeExpired(s.clock.Now())
	if ii, ok := s.index.(lsh.IntoIndex); ok {
		return ii.NearestInto(q, k, dst)
	}
	return s.index.Nearest(q, k)
}

// purgeExpired removes expired entries. The fast path is one atomic
// load: until the clock passes the tracked earliest expiry deadline,
// nothing can be expired and the store lock is not taken, so between
// expiry events a TTL-enabled store's lookups cost what a TTL-free
// store's do.
func (s *Store) purgeExpired(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	m := s.minExpiry.Load()
	if m == 0 || now.UnixNano() <= m {
		return
	}
	s.mu.Lock()
	s.expireLocked(now)
	s.mu.Unlock()
}

// Remove deletes id from the store and index.
func (s *Store) Remove(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if it, ok := s.entries[id]; ok {
		s.removeLocked(it)
	}
}

// Confirm records a shadow-audit agreement on id: the DNN re-ran on a
// frame this entry served and produced the same label. One outstanding
// refute is forgiven; neither counter ever goes negative.
func (s *Store) Confirm(id lsh.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return
	}
	e.Confirms++
	if e.Refutes > 0 {
		e.Refutes--
	}
}

// Refute records a shadow-audit disagreement on id. When the
// outstanding refute count reaches the quarantine threshold, the entry
// is pulled from the candidate index: it stops appearing in Nearest
// results and kNN votes until a parole re-verification reinstates it.
// Refute reports whether this call quarantined the entry.
func (s *Store) Refute(id lsh.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok || e.Quarantined {
		return false
	}
	e.Refutes++
	if s.cfg.QuarantineThreshold <= 0 || e.Refutes < s.cfg.QuarantineThreshold {
		return false
	}
	e.Quarantined = true
	s.qTotal++
	s.index.Remove(id)
	return true
}

// ParoleOutcome reports what a parole re-verification did to an entry.
type ParoleOutcome int

const (
	// ParoleMissing: the entry is gone or was never quarantined.
	ParoleMissing ParoleOutcome = iota
	// ParoleReinstated: the re-verification agreed; the entry is back
	// in the candidate index with cleared audit counters.
	ParoleReinstated
	// ParoleHeld: the re-verification disagreed; still quarantined.
	ParoleHeld
	// ParoleEvicted: the re-verification disagreed once too often;
	// the entry has been removed for good.
	ParoleEvicted
)

// Parole records the outcome of re-verifying a quarantined entry
// against a fresh DNN result. ok reinstates the entry into the
// candidate index with cleared audit counters; !ok counts a parole
// failure and evicts the entry once ParoleFailLimit failures
// accumulate.
func (s *Store) Parole(id lsh.ID, ok bool) ParoleOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, live := s.entries[id]
	if !live || !e.Quarantined {
		return ParoleMissing
	}
	if ok {
		e.Quarantined = false
		e.Refutes = 0
		e.ParoleFails = 0
		s.qParoled++
		if err := s.index.Insert(id, e.Vec); err != nil {
			// The index refused the vector it previously held (cannot
			// happen with the in-tree indexes); drop the entry rather
			// than keep a permanently unfindable one.
			s.dropLocked(e)
			s.qEvicted++
			return ParoleEvicted
		}
		return ParoleReinstated
	}
	e.ParoleFails++
	if s.cfg.ParoleFailLimit > 0 && e.ParoleFails >= s.cfg.ParoleFailLimit {
		s.removeLocked(e)
		s.qEvicted++
		return ParoleEvicted
	}
	return ParoleHeld
}

// Quarantined reports whether id is currently quarantined.
func (s *Store) Quarantined(id lsh.ID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[id]
	return ok && e.Quarantined
}

// QuarantineStats summarizes quarantine activity.
type QuarantineStats struct {
	// Active is the number of currently quarantined entries.
	Active int
	// Total counts entries ever quarantined.
	Total int
	// Paroled counts quarantined entries reinstated by parole.
	Paroled int
	// Evicted counts quarantined entries removed at the parole-fail
	// limit.
	Evicted int
}

// QuarantineStats returns the store's quarantine lifecycle counters.
func (s *Store) QuarantineStats() QuarantineStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := QuarantineStats{
		Total:   s.qTotal,
		Paroled: s.qParoled,
		Evicted: s.qEvicted,
	}
	for _, e := range s.entries {
		if e.Quarantined {
			st.Active++
		}
	}
	return st
}

// StoreStats summarizes the store's occupancy and churn.
type StoreStats struct {
	// Entries is the live entry count.
	Entries int
	// Evictions and Expiries count removals by cause.
	Evictions int
	Expiries  int
	// BySource counts live entries by their recorded source.
	BySource map[string]int
	// TotalHits sums the hit counters of live entries.
	TotalHits int
	// SavedTotal sums SavedCost × Hits over live entries: the
	// inference time this store's reuse has avoided so far.
	SavedTotal time.Duration
}

// Stats returns an occupancy/churn summary. A snapshot of a store with
// nothing expired runs entirely under the read lock, so periodic stats
// scraping cannot stall the lookup path.
func (s *Store) Stats() StoreStats {
	s.purgeExpired(s.clock.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{
		Entries:   len(s.entries),
		Evictions: int(s.evictions.Load()),
		Expiries:  int(s.expiries.Load()),
		BySource:  make(map[string]int),
	}
	for _, e := range s.entries {
		st.BySource[e.Source]++
		st.TotalHits += e.Hits
		st.SavedTotal += time.Duration(e.Hits) * e.SavedCost
	}
	return st
}

// Snapshot returns copies of all live entries, for export/gossip. Like
// Stats, it only needs the read lock unless entries have expired.
func (s *Store) Snapshot() []Entry {
	s.purgeExpired(s.clock.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, it := range s.entries {
		out = append(out, snapshotEntry(&it.Entry))
	}
	return out
}

// removeLocked deletes a live entry from the store and the index.
func (s *Store) removeLocked(it *item) {
	s.dropLocked(it)
	s.index.Remove(it.ID)
}

// dropLocked deletes a live entry from the store's own bookkeeping
// only, for entries the index no longer holds.
func (s *Store) dropLocked(it *item) {
	delete(s.entries, it.ID)
	heap.Remove(&s.victims, it.pos)
	s.nlive.Add(-1)
}

func (s *Store) expiredLocked(e *Entry, now time.Time) bool {
	return s.cfg.TTL > 0 && now.Sub(e.InsertedAt) > s.cfg.TTL
}

// expireLocked removes every expired entry. Insertion times never
// decrease along the expiry queue, so the expired entries are exactly
// the live ones at its front: pop records (skipping those of entries
// already removed) until the head is live and unexpired. The head's
// deadline is then the earliest among live entries.
func (s *Store) expireLocked(now time.Time) {
	if s.cfg.TTL <= 0 {
		return
	}
	var next int64 // head deadline, unix nanos (0 = queue empty)
	for {
		rec, ok := s.expiry.peek()
		if !ok {
			break
		}
		if it, live := s.entries[rec.id]; live {
			if !s.expiredLocked(&it.Entry, now) {
				next = rec.deadline
				break
			}
			s.removeLocked(it)
			s.expiries.Add(1)
		}
		s.expiry.pop()
	}
	s.minExpiry.Store(next)
}
