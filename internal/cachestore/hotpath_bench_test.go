package cachestore

// Store hot-path benchmarks. `make bench-gate` pins the allocation
// budget of the HotPath ones via cmd/benchgate. The shape matches the
// standard pipeline: 80-dim vectors, a 12 bits × 4 tables index and
// the cost-aware policy.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func benchVecs(n int, seed int64) []feature.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, 80)
		for d := range v {
			v[d] = rng.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// fullStore returns a cost-aware store filled to capacity, the clock
// driving it, and the live IDs.
func fullStore(b *testing.B, capacity int) (*Store, *simclock.Virtual, []lsh.ID) {
	b.Helper()
	idx, err := lsh.NewHyperplane(80, 12, 4, 5)
	if err != nil {
		b.Fatal(err)
	}
	clk := simclock.NewVirtual(time.Unix(0, 0))
	s, err := New(Config{Capacity: capacity, Policy: CostAware}, idx, clk)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]lsh.ID, 0, capacity)
	for i, v := range benchVecs(capacity, 7) {
		id, err := s.Insert(v, "x", 1, "dnn", time.Duration(1+i%5)*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
		clk.Advance(time.Microsecond)
	}
	return s, clk, ids
}

// BenchmarkHotPathStoreTouch measures the per-hit bookkeeping of a
// local cache hit: recency/frequency update plus the O(log n) heap
// re-rank. Budget: 0 allocs/op.
func BenchmarkHotPathStoreTouch(b *testing.B) {
	s, clk, ids := fullStore(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Touch(ids[i%len(ids)])
		clk.Advance(time.Microsecond)
	}
}

// BenchmarkStoreInsertAtCapacity measures an insert into a full store
// — victim selection, eviction from store and index, and the insert
// itself — across store sizes. With heap eviction the cost should grow
// with log n, not n.
func BenchmarkStoreInsertAtCapacity(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		b.Run(fmt.Sprintf("n=%dk", n>>10), func(b *testing.B) {
			s, clk, _ := fullStore(b, n)
			fresh := benchVecs(1024, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Insert(fresh[i%len(fresh)], "y", 1, "dnn", time.Millisecond); err != nil {
					b.Fatal(err)
				}
				clk.Advance(time.Microsecond)
			}
		})
	}
}
