package lsh

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"approxcache/internal/feature"
)

// Recycle-workload ID space: IDs are recycleBase + recycleStride*i for
// i < recycleUniverse, so a zeroed or torn slot ID (0, or anything off
// the stride) is recognisably one that was never inserted.
const (
	recycleBase     = 1000
	recycleStride   = 7
	recycleUniverse = 96
	recycleDim      = 8
)

func recycleID(i int) ID { return ID(recycleBase + recycleStride*i) }

// recycleIndex maps an ID back to its universe position, or -1 when no
// writer could ever have inserted it.
func recycleIndex(id ID) int {
	if id < recycleBase || (id-recycleBase)%recycleStride != 0 {
		return -1
	}
	i := int((id - recycleBase) / recycleStride)
	if i >= recycleUniverse {
		return -1
	}
	return i
}

// recycleVecs returns the vector of every universe ID. Each vector is a
// deterministic function of its ID, so re-inserting an ID after a
// remove puts back the same vector, and a reader can recompute the
// exact distance to any ID it is handed.
func recycleVecs() []feature.Vector {
	vecs := make([]feature.Vector, recycleUniverse)
	for i := range vecs {
		vecs[i] = randVec(rand.New(rand.NewSource(int64(recycleID(i)))), recycleDim)
	}
	return vecs
}

// recycleWorkload races readers against writers that keep the live set
// at a fixed size while removing and re-inserting IDs, so arena slots
// are freed and handed to other IDs throughout. Every neighbour a
// reader gets must carry exactly the distance from the query to that
// ID's vector, every returned ID must be one a writer could have
// inserted, and no lookup may return an ID twice. Once the writers
// stop, the index must hold exactly the live set. Run under -race this
// also checks that every reader access is ordered against the writes.
func recycleWorkload(t *testing.T, idx *HyperplaneIndex) {
	t.Helper()
	const (
		writers  = 2
		readers  = 4
		liveEach = 24
		ops      = 400
	)
	vecs := recycleVecs()
	per := recycleUniverse / writers
	// live[w] is writer w's live set; writer w owns universe positions
	// [w*per, (w+1)*per), so writers never touch each other's IDs.
	live := make([][]int, writers)
	for w := range live {
		for i := 0; i < liveEach; i++ {
			pos := w*per + i
			if err := idx.Insert(recycleID(pos), vecs[pos]); err != nil {
				t.Fatal(err)
			}
			live[w] = append(live[w], pos)
		}
	}

	check := func(q feature.Vector, ns []Neighbor, k int) bool {
		t.Helper()
		if len(ns) > k {
			t.Errorf("got %d neighbours for k=%d", len(ns), k)
			return false
		}
		for j, n := range ns {
			pos := recycleIndex(n.ID)
			if pos < 0 {
				t.Errorf("neighbour %d: id %d was never inserted", j, n.ID)
				return false
			}
			if want := math.Sqrt(feature.MustSqEuclidean(q, vecs[pos])); n.Distance != want {
				t.Errorf("neighbour %d: id %d distance %v, exact %v", j, n.ID, n.Distance, want)
				return false
			}
			for _, m := range ns[:j] {
				if m.ID == n.ID {
					t.Errorf("id %d returned twice: %+v", n.ID, ns)
					return false
				}
			}
			if j > 0 && neighborWorse(ns[j-1], n) {
				t.Errorf("neighbours out of order: %+v", ns)
				return false
			}
		}
		return true
	}
	checkIDs := func(ids []ID) bool {
		t.Helper()
		seen := make(map[ID]bool, len(ids))
		for _, id := range ids {
			if recycleIndex(id) < 0 {
				t.Errorf("candidate id %d was never inserted", id)
				return false
			}
			if seen[id] {
				t.Errorf("candidate id %d returned twice", id)
				return false
			}
			seen[id] = true
		}
		return true
	}

	var stop atomic.Bool
	var rwg, wwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(50 + r)))
			dst := make([]Neighbor, 0, 8)
			var ids []ID
			q := make(feature.Vector, recycleDim)
			for !stop.Load() {
				// Half the queries sit next to a universe vector, so
				// they land in populated buckets.
				if rng.Intn(2) == 0 {
					base := vecs[rng.Intn(recycleUniverse)]
					for d := range q {
						q[d] = base[d] + 0.05*rng.NormFloat64()
					}
				} else {
					for d := range q {
						q[d] = rng.NormFloat64()
					}
				}
				k := 1 + rng.Intn(8)
				ns, err := idx.NearestInto(q, k, dst)
				if err != nil {
					t.Error(err)
					return
				}
				if !check(q, ns, k) {
					return
				}
				dst = ns[:0]
				ids, err = idx.CandidatesInto(q, ids[:0])
				if err != nil {
					t.Error(err)
					return
				}
				if !checkIDs(ids) {
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				// Remove one live ID, then insert one that is not live:
				// the freed slot is the one the insert takes.
				j := rng.Intn(len(live[w]))
				idx.Remove(recycleID(live[w][j]))
				var pos int
				for {
					pos = w*per + rng.Intn(per)
					if !slices.Contains(live[w], pos) {
						break
					}
				}
				live[w][j] = pos
				if err := idx.Insert(recycleID(pos), vecs[pos]); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 { // replace in place: same ID, same vector
					pos := live[w][rng.Intn(len(live[w]))]
					if err := idx.Insert(recycleID(pos), vecs[pos]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent: the index holds exactly the live set. A live ID's own
	// vector always hashes into its buckets, so it must be its own
	// nearest neighbour; a removed ID must never come back.
	liveSet := make(map[int]bool)
	for w := range live {
		for _, pos := range live[w] {
			liveSet[pos] = true
		}
	}
	if got := idx.Len(); got != len(liveSet) {
		t.Fatalf("Len = %d, want %d", got, len(liveSet))
	}
	for pos, v := range vecs {
		ns, err := idx.NearestInto(v, recycleUniverse, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ns {
			if !liveSet[recycleIndex(n.ID)] {
				t.Fatalf("query %d: removed id %d still indexed", pos, n.ID)
			}
		}
		if liveSet[pos] && (len(ns) == 0 || ns[0].ID != recycleID(pos) || ns[0].Distance != 0) {
			t.Fatalf("live id %d is not its own nearest neighbour: %+v", recycleID(pos), ns)
		}
	}
}

func TestReadersDuringSlotRecycleClassic(t *testing.T) {
	idx, err := NewHyperplane(recycleDim, 6, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	recycleWorkload(t, idx)
}

func TestReadersDuringSlotRecycleTuned(t *testing.T) {
	// Multi-probe, the sketch prefilter and the int8 stage all read
	// per-slot arenas that recycling rewrites.
	tun := DefaultTuning()
	tun.Probes = 4
	idx, err := NewHyperplaneTuned(recycleDim, 6, 3, 42, tun)
	if err != nil {
		t.Fatal(err)
	}
	recycleWorkload(t, idx)
}
