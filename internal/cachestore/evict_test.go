package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// refVictim is the linear victim scan the eviction heap replaced, kept
// verbatim as the trivially correct reference: every live entry is
// compared under the policy order and the worst one wins.
func refVictim(s *Store) (lsh.ID, bool) {
	var (
		victim lsh.ID
		found  bool
		best   *Entry
	)
	worse := func(cand, incumbent *Entry) bool {
		switch s.cfg.Policy {
		case LFU:
			if cand.Hits != incumbent.Hits {
				return cand.Hits < incumbent.Hits
			}
		case CostAware:
			cv := float64(cand.SavedCost) * float64(cand.Hits+1)
			iv := float64(incumbent.SavedCost) * float64(incumbent.Hits+1)
			if cv != iv {
				return cv < iv
			}
		}
		if !cand.LastAccess.Equal(incumbent.LastAccess) {
			return cand.LastAccess.Before(incumbent.LastAccess)
		}
		// Final tie-break by ID for determinism.
		return cand.ID < incumbent.ID
	}
	for _, it := range s.entries {
		e := &it.Entry
		if !found || worse(e, best) {
			victim, best, found = e.ID, e, true
		}
	}
	return victim, found
}

// checkHeap verifies the eviction heap against the entry map: same
// population, back-pointers in place, and no child ranked worse than
// its parent.
func checkHeap(t testing.TB, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := s.victims.items
	if len(h) != len(s.entries) || s.Len() != len(s.entries) {
		t.Fatalf("heap holds %d, map %d, Len %d", len(h), len(s.entries), s.Len())
	}
	for i, it := range h {
		if it.pos != i {
			t.Fatalf("heap[%d] (id %d) records pos %d", i, it.ID, it.pos)
		}
		if s.entries[it.ID] != it {
			t.Fatalf("heap[%d] id %d is not the live entry", i, it.ID)
		}
		if p := (i - 1) / 2; i > 0 && worse(s.cfg.Policy, &it.Entry, &h[p].Entry) {
			t.Fatalf("heap[%d] (id %d) ranks before its parent heap[%d] (id %d)", i, it.ID, p, h[p].ID)
		}
	}
}

func liveIDs(s *Store) map[lsh.ID]bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[lsh.ID]bool, len(s.entries))
	for id := range s.entries {
		out[id] = true
	}
	return out
}

// runEvictionOps drives one store through the op sequence encoded in
// ops (two bytes per op: kind, argument) and checks it against a plain
// model after every step: the live ID set, Len, Evictions, the heap
// invariant, and — on every insert at capacity — that the evicted
// entry is exactly refVictim's choice.
func runEvictionOps(t *testing.T, policy Policy, capacity int, ops []byte) {
	t.Helper()
	clk := simclock.NewVirtual(time.Unix(0, 0))
	cfg := Config{Capacity: capacity, Policy: policy, QuarantineThreshold: 1, ParoleFailLimit: 2}
	newStore := func() *Store {
		idx, err := lsh.NewExact(2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg, idx, clk)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := newStore()
	model := map[lsh.ID]bool{}
	var ids []lsh.ID // every ID handed out by the current store
	evictions := 0
	for i := 0; i+1 < len(ops); i += 2 {
		kind, arg := ops[i]%6, int(ops[i+1])
		var pick lsh.ID
		if len(ids) > 0 {
			pick = ids[arg%len(ids)]
		}
		switch kind {
		case 0: // insert, evicting once the store is full
			want, full := refVictim(s)
			full = full && s.Len() >= capacity
			id, err := s.Insert(vec(float64(arg%5), float64(i)), fmt.Sprintf("l%d", arg%3), 0.9, "dnn",
				time.Duration(1+arg%3)*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if full {
				if !model[want] {
					t.Fatalf("op %d: reference victim %d not in the model", i/2, want)
				}
				delete(model, want)
				evictions++
			}
			model[id] = true
			ids = append(ids, id)
		case 1:
			s.Touch(pick)
		case 2:
			s.Remove(pick)
			delete(model, pick)
		case 3:
			s.Refute(pick)
		case 4:
			if s.Parole(pick, arg%2 == 0) == ParoleEvicted {
				delete(model, pick)
			}
		case 5: // export, then carry on with a fresh store built from it
			if arg%4 != 0 {
				break
			}
			var buf bytes.Buffer
			if err := s.Export(&buf); err != nil {
				t.Fatal(err)
			}
			n := s.Len()
			s = newStore()
			if got, err := s.Import(&buf); err != nil || got != n {
				t.Fatalf("op %d: import %d, %v; want %d", i/2, got, err, n)
			}
			model, ids, evictions = liveIDs(s), nil, 0
			for id := range model {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		}
		// Zero advances leave LastAccess ties for the ID tie-break.
		clk.Advance(time.Duration(arg%3) * time.Millisecond)

		if got := liveIDs(s); len(got) != len(model) {
			t.Fatalf("op %d (kind %d): live %v, model %v", i/2, kind, got, model)
		} else {
			for id := range model {
				if !got[id] {
					t.Fatalf("op %d (kind %d): model entry %d missing; live %v", i/2, kind, id, got)
				}
			}
		}
		if s.Evictions() != evictions {
			t.Fatalf("op %d: Evictions %d, model %d", i/2, s.Evictions(), evictions)
		}
		checkHeap(t, s)
	}
}

func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 2*n)
	rng.Read(ops)
	for i := 0; i < len(ops); i += 2 {
		if rng.Intn(2) == 0 {
			ops[i] = 0 // bias toward inserts so the store runs full
		}
	}
	return ops
}

// FuzzEvictionMatchesReference checks heap eviction against the
// linear reference scan over random op sequences for every policy.
// The seed corpus runs under plain `go test`.
func FuzzEvictionMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(uint8(seed), randomOps(seed, 600))
	}
	f.Add(uint8(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, policy uint8, ops []byte) {
		runEvictionOps(t, Policy(policy%3)+LRU, 8, ops)
	})
}

// TestEvictionMatchesReferenceLargeStore runs longer sequences at a
// capacity where the heap is several levels deep.
func TestEvictionMatchesReferenceLargeStore(t *testing.T) {
	for _, p := range []Policy{LRU, LFU, CostAware} {
		runEvictionOps(t, p, 96, randomOps(int64(p)+40, 4000))
	}
}

// scanExpired lists the entries the old full-scan expiry would have
// removed at now.
func scanExpired(s *Store, now time.Time) []lsh.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []lsh.ID
	for id, it := range s.entries {
		if s.expiredLocked(&it.Entry, now) {
			out = append(out, id)
		}
	}
	return out
}

// TestExpiryFIFOMatchesScan checks the FIFO expiry against the full
// scan it replaced, under random inserts (at and below capacity),
// touches, removals, refutes and lookups mixed with clock advances:
// every purge removes exactly the entries the scan would have, and
// the lock-free deadline hint never runs later than a live entry's
// deadline.
func TestExpiryFIFOMatchesScan(t *testing.T) {
	const ttl = 100 * time.Millisecond
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, clk := newTestStore(t, Config{Capacity: 8, Policy: LFU, TTL: ttl, QuarantineThreshold: 1})
		var ids []lsh.ID
		for step := 0; step < 3000; step++ {
			now := clk.Now()
			want := scanExpired(s, now)
			before := s.Expiries()
			purges := false
			switch op := rng.Intn(7); {
			case op < 3:
				id, err := s.Insert(vec(rng.Float64(), rng.Float64()), "x", 1, "dnn", time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				purges = true
			case op == 3:
				if _, err := s.NearestInto(vec(0, 0), 3, nil); err != nil {
					t.Fatal(err)
				}
				purges = true
			case len(ids) == 0:
			case op == 4:
				s.Touch(ids[rng.Intn(len(ids))])
			case op == 5:
				s.Remove(ids[rng.Intn(len(ids))])
			default:
				s.Refute(ids[rng.Intn(len(ids))])
			}
			if purges {
				if got := s.Expiries() - before; got != len(want) {
					t.Fatalf("seed %d step %d: purge expired %d, scan says %d", seed, step, got, len(want))
				}
				if left := scanExpired(s, now); len(left) > 0 {
					t.Fatalf("seed %d step %d: expired entries %v survived the purge", seed, step, left)
				}
			}
			s.mu.RLock()
			hint := s.minExpiry.Load()
			for _, it := range s.entries {
				if d := it.InsertedAt.Add(ttl).UnixNano(); hint == 0 || hint > d {
					t.Fatalf("seed %d step %d: deadline hint %d later than live entry %d's %d", seed, step, hint, it.ID, d)
				}
			}
			s.mu.RUnlock()
			clk.Advance(time.Duration(rng.Intn(12)) * time.Millisecond)
		}
		if s.Expiries() == 0 || s.Evictions() == 0 {
			t.Fatalf("seed %d: workload never exercised expiry (%d) or eviction (%d)", seed, s.Expiries(), s.Evictions())
		}
	}
}

// TestExpiryFIFOBounded pins the expiry queue's memory: with a TTL far
// longer than the churn, records of evicted entries never reach the
// head, and only compaction keeps the queue near the capacity.
func TestExpiryFIFOBounded(t *testing.T) {
	const capacity = 16
	s, clk := newTestStore(t, Config{Capacity: capacity, TTL: time.Hour})
	for i := 0; i < 20000; i++ {
		if _, err := s.Insert(vec(float64(i), 0), "x", 1, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	if got := cap(s.expiry.recs); got > 4*capacity {
		t.Fatalf("expiry queue capacity %d after 20000 inserts, want <= %d", got, 4*capacity)
	}
	if s.Expiries() != 0 || s.Len() != capacity {
		t.Fatalf("expiries %d, len %d", s.Expiries(), s.Len())
	}
	clk.Advance(time.Hour + time.Second)
	s.Stats()
	if s.Len() != 0 || s.Expiries() != capacity {
		t.Fatalf("after the TTL: len %d, expiries %d", s.Len(), s.Expiries())
	}
}
