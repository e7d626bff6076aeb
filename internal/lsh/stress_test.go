package lsh

import (
	"math/rand"
	"sync"
	"testing"
)

// stressIndex hammers idx with concurrent inserts, removes, and lookups.
// Run under -race (make check does) this validates the RWMutex split,
// the pooled query scratch, and arena slot reuse.
func stressIndex(t *testing.T, idx Index, dim int) {
	t.Helper()
	const (
		writers = 4
		readers = 4
		ops     = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				id := ID(w*ops + rng.Intn(ops))
				if rng.Float64() < 0.7 {
					if err := idx.Insert(id, randVec(rng, dim)); err != nil {
						t.Error(err)
						return
					}
				} else {
					idx.Remove(id)
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]Neighbor, 0, 8)
			ii, hasInto := idx.(IntoIndex)
			for i := 0; i < ops; i++ {
				q := randVec(rng, dim)
				k := 1 + rng.Intn(8)
				var ns []Neighbor
				var err error
				if hasInto && i%2 == 0 {
					ns, err = ii.NearestInto(q, k, dst)
					if err == nil {
						dst = ns[:0]
					}
				} else {
					ns, err = idx.Nearest(q, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if len(ns) > k {
					t.Errorf("got %d neighbors for k=%d", len(ns), k)
					return
				}
				for j := 1; j < len(ns); j++ {
					if neighborWorse(ns[j-1], ns[j]) {
						t.Errorf("neighbors out of order: %+v", ns)
						return
					}
				}
				idx.Len()
			}
		}(r)
	}
	wg.Wait()
}

func TestHyperplaneConcurrentStress(t *testing.T) {
	idx, err := NewHyperplane(8, 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

func TestHyperplaneTunedConcurrentStress(t *testing.T) {
	// The full tuned pipeline — multi-probe walks, sketch arena reads,
	// quantized scoring — racing writers that grow and recycle the very
	// arenas the readers walk.
	tun := DefaultTuning()
	tun.Probes = 4
	idx, err := NewHyperplaneTuned(8, 6, 3, 42, tun)
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

func TestExactConcurrentStress(t *testing.T) {
	idx, err := NewExact(8)
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

func TestAdaptiveConcurrentStress(t *testing.T) {
	idx, err := NewAdaptive(AdaptiveConfig{
		Dim: 8, Bits: 6, Tables: 3, Seed: 42,
		CheckEvery: 64, SkewThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stressIndex(t, idx, 8)
}

// TestBucketShrinkAfterChurn verifies that removals both clear the
// swapped-from tail slot and hand grossly over-capacity buckets back to
// the allocator instead of pinning their high-water backing arrays.
func TestBucketShrinkAfterChurn(t *testing.T) {
	// One bit and one table funnels everything into at most two buckets,
	// so they grow large before the churn.
	idx, err := NewHyperplane(4, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const n = 1024
	for i := 0; i < n; i++ {
		if err := idx.Insert(ID(i), randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-8; i++ {
		idx.Remove(ID(i))
	}
	arenaLen := func() int {
		idx.mu.RLock()
		defer idx.mu.RUnlock()
		for t0, table := range idx.buckets {
			for sig, bucket := range table {
				if len(bucket) == 0 {
					t.Errorf("table %d sig %x: empty bucket retained", t0, sig)
				}
				if cap(bucket) >= bucketShrinkMin && cap(bucket) >= 4*len(bucket) {
					t.Errorf("table %d sig %x: bucket len %d cap %d not shrunk",
						t0, sig, len(bucket), cap(bucket))
				}
			}
		}
		return len(idx.arena)
	}()
	// Freed slots must be recycled: re-inserting the same population
	// cannot grow the arena beyond its high-water mark.
	for i := 0; i < n-8; i++ {
		if err := idx.Insert(ID(i), randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if len(idx.arena) > arenaLen {
		t.Errorf("arena grew past high-water mark: %d floats, was %d", len(idx.arena), arenaLen)
	}
}
