package cachestore

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

func randVec4(rng *rand.Rand) feature.Vector {
	v := make(feature.Vector, 4)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestReadersDuringImportRace floods a warm store with readers while
// Import bulk-inserts a snapshot on top of it. Run under -race this
// checks the reader pipeline against the heaviest write burst the
// store supports.
func TestReadersDuringImportRace(t *testing.T) {
	const dim = 4
	mk := func(seed int64, capacity int) *Store {
		idx, err := lsh.NewHyperplane(dim, 6, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Capacity: capacity}, idx, simclock.NewVirtual(time.Unix(0, 0)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < capacity/2; i++ {
			if _, err := s.Insert(randVec4(rng), "x", 0.9, "dnn", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	donor := mk(5, 64)
	var buf bytes.Buffer
	if err := donor.Export(&buf); err != nil {
		t.Fatal(err)
	}
	target := mk(6, 256)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			dst := make([]lsh.Neighbor, 0, 8)
			for !stop.Load() {
				ns, err := target.NearestInto(randVec4(rng), 3, dst)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range ns {
					target.Label(n.ID)
				}
				dst = ns[:0]
				target.Len()
				runtime.Gosched()
			}
		}(r)
	}
	if _, err := target.Import(bytes.NewReader(buf.Bytes())); err != nil {
		t.Error(err)
	}
	stop.Store(true)
	wg.Wait()
}

// TestReadersDuringQuarantineRace drives lookups concurrent with
// refute/quarantine/parole churn — the write path that removes slots
// from the candidate index while readers are mid-pipeline. Under -race
// this exercises slot recycling through the store.
func TestReadersDuringQuarantineRace(t *testing.T) {
	const dim = 4
	idx, err := lsh.NewHyperplane(dim, 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Capacity: 128, QuarantineThreshold: 1}, idx,
		simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	ids := make([]lsh.ID, 0, 64)
	for i := 0; i < 64; i++ {
		id, err := s.Insert(randVec4(rng), "x", 0.9, "dnn", time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(200 + r)))
			dst := make([]lsh.Neighbor, 0, 8)
			for !stop.Load() {
				ns, err := s.NearestInto(randVec4(rrng), 3, dst)
				if err != nil {
					t.Error(err)
					return
				}
				dst = ns[:0]
				runtime.Gosched()
			}
		}(r)
	}
	wrng := rand.New(rand.NewSource(300))
	for i := 0; i < 200; i++ {
		id := ids[wrng.Intn(len(ids))]
		if s.Refute(id) {
			s.Parole(id, wrng.Float64() < 0.7)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestReadersDuringAdaptiveRebuildRace points readers at a store whose
// index is an AdaptiveIndex and forces rebuilds under them: skewed
// all-positive data piles into few buckets, so inserts keep triggering
// re-centering rebuilds that swap the whole index out from under the
// read path.
func TestReadersDuringAdaptiveRebuildRace(t *testing.T) {
	const dim = 4
	adaptive, err := lsh.NewAdaptive(lsh.AdaptiveConfig{
		Dim: dim, Bits: 6, Tables: 2, Seed: 42,
		CheckEvery: 16, SkewThreshold: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Capacity: 512}, adaptive, simclock.NewVirtual(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	skewed := func(rng *rand.Rand) feature.Vector {
		v := make(feature.Vector, dim)
		for i := range v {
			v[i] = 50 + rng.Float64() // off-origin: correlated signs
		}
		return v
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 64; i++ {
		if _, err := s.Insert(skewed(rng), "x", 0.9, "dnn", time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(400 + r)))
			dst := make([]lsh.Neighbor, 0, 8)
			for !stop.Load() {
				ns, err := s.NearestInto(skewed(rrng), 3, dst)
				if err != nil {
					t.Error(err)
					return
				}
				dst = ns[:0]
				runtime.Gosched()
			}
		}(r)
	}
	for i := 0; i < 256; i++ {
		if _, err := s.Insert(skewed(rng), "x", 0.9, "dnn", time.Millisecond); err != nil {
			t.Error(err)
			break
		}
	}
	if adaptive.Rebuilds() == 0 {
		t.Log("no rebuild triggered; race coverage reduced this run")
	}
	stop.Store(true)
	wg.Wait()
}
