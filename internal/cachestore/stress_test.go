package cachestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

const testDim = 32

// unitVecs returns n seeded random unit vectors of testDim dimensions.
func unitVecs(tb testing.TB, n int, seed int64) []feature.Vector {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, testDim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		v.Normalize()
		out[i] = v
	}
	return out
}

// newHyperplaneStore builds a store over a classic hyperplane index
// with seed 99, so two stores built alike hash identically.
func newHyperplaneStore(tb testing.TB, cfg Config, clock simclock.Clock) *Store {
	tb.Helper()
	idx, err := lsh.NewHyperplane(testDim, 8, 4, 99)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(cfg, idx, clock)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestStoreConcurrentStress hammers one full store from many
// goroutines mixing Insert (each one evicts), NearestInto, Touch,
// Label, Remove, Export and Stats. Run under -race this is the
// data-race proof for the serving path; afterwards the store must
// still respect its capacity and its eviction heap must match the
// entry map.
func TestStoreConcurrentStress(t *testing.T) {
	const capacity = 128
	clock := simclock.NewVirtual(time.Unix(0, 0))
	s := newHyperplaneStore(t, Config{Capacity: capacity}, clock)
	vecs := unitVecs(t, 256, 61)
	for i, v := range vecs[:capacity] {
		if _, err := s.Insert(v, fmt.Sprintf("warm-%d", i), 0.8, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	const opsPerWorker = 300

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]lsh.Neighbor, 0, 4)
			for op := 0; op < opsPerWorker; op++ {
				v := vecs[(w*opsPerWorker+op)%len(vecs)]
				switch op % 4 {
				case 0, 1:
					ns, err := s.NearestInto(v, 4, dst)
					if err != nil {
						t.Error(err)
						return
					}
					for _, n := range ns {
						s.Touch(n.ID)
						s.Label(n.ID)
					}
					dst = ns[:0]
				case 2:
					id, err := s.Insert(v, fmt.Sprintf("w%d-%d", w, op), 0.8, "dnn", time.Millisecond)
					if err != nil {
						t.Error(err)
						return
					}
					if op%8 == 2 {
						s.Remove(id)
					}
				case 3:
					if op%30 == 3 {
						var buf bytes.Buffer
						if err := s.Export(&buf); err != nil {
							t.Error(err)
							return
						}
					} else {
						s.Stats()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Len(); got > capacity {
		t.Fatalf("Len = %d, want <= capacity %d", got, capacity)
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions from inserts into a full store")
	}
	if got := s.index.Len(); got != s.Len() {
		t.Fatalf("index holds %d vectors, store %d entries", got, s.Len())
	}
	checkHeap(t, s)
}
