package lsh

import (
	"math"
	"math/rand"
	"testing"

	"approxcache/internal/feature"
)

// refScore is a plain reference scorer for x: it takes the population
// NearestInto ranks (CandidatesInto), scores every member with a full
// MustSqEuclidean, sorts by (distance, ID) and keeps k. Under the
// quantized tuning it first replays the approximate stage — the
// RerankK·k best by (int8 approximate distance, slot) — and re-ranks
// only those. Single-threaded use only: it reads the writer-side slot
// maps.
func refScore(t *testing.T, x *HyperplaneIndex, q feature.Vector, k int) []Neighbor {
	t.Helper()
	cands, err := x.CandidatesInto(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x.tun.Quantize {
		codes := make([]int8, x.dim)
		qq := feature.QuantizeInto(q, codes)
		approx := make([]Neighbor, 0, len(cands))
		for _, id := range cands {
			slot := x.idSlot[id]
			dot := feature.DotInt8(codes, x.slotCodes(slot))
			approx = append(approx, Neighbor{
				ID:       ID(slot),
				Distance: feature.ApproxSqDistance(x.dim, qq, x.quant[slot], dot),
			})
		}
		cands = cands[:0]
		for _, n := range sortSelect(approx, x.tun.RerankK*k) {
			cands = append(cands, x.slotID[int32(n.ID)])
		}
	}
	scored := make([]Neighbor, 0, len(cands))
	for _, id := range cands {
		scored = append(scored, Neighbor{ID: id, Distance: feature.MustSqEuclidean(q, x.slotVec(x.idSlot[id]))})
	}
	out := sortSelect(scored, k)
	for i := range out {
		out[i].Distance = math.Sqrt(out[i].Distance)
	}
	return out
}

// TestNearestMatchesReferenceScorer pins early-abandon scoring to the
// plain scorer: the same (ID, Distance) lists, bit for bit, on the
// classic path, the unquantized multi-probe path and the quantized
// path's exact re-rank, with and without the int8 stage. The data is
// clustered into few, crowded buckets (so most candidates are
// abandoned) and a quarter of the vectors are exact duplicates (so
// distance ties are decided by ID).
func TestNearestMatchesReferenceScorer(t *testing.T) {
	tunings := map[string]Tuning{
		"classic":    {},
		"multiprobe": {Probes: 4, SketchBits: 64},
		"quantized":  DefaultTuning(),
		// A re-rank width of 16·k keeps every survivor at k = 40, so
		// the int8 stage is skipped there and runs at k = 1.
		"quantized-wide": {Probes: 8, SketchBits: 64, Quantize: true, RerankK: 16},
	}
	for name, tun := range tunings {
		for _, dim := range []int{21, 80} {
			rng := rand.New(rand.NewSource(int64(dim)))
			x, err := NewHyperplaneTuned(dim, 6, 3, 5, tun)
			if err != nil {
				t.Fatal(err)
			}
			vecs := clusteredVecs(rng, 480, dim, 12, 0.05)
			for i := range vecs {
				if i%4 == 3 {
					vecs[i] = vecs[rng.Intn(i)].Clone()
				}
				if err := x.Insert(ID(i+1), vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < len(vecs); i += 7 {
				x.Remove(ID(i + 1)) // leave recycled slots behind
			}
			var buf []Neighbor
			for qi := 0; qi < 120; qi++ {
				q := vecs[rng.Intn(len(vecs))]
				if qi%2 == 1 {
					q = perturb(rng, q, 0.02)
				}
				for _, k := range []int{1, 4, 8, 40} {
					got, err := x.NearestInto(q, k, buf)
					if err != nil {
						t.Fatal(err)
					}
					want := refScore(t, x, q, k)
					if len(got) != len(want) {
						t.Fatalf("%s dim %d query %d k %d: %d neighbors, reference %d", name, dim, qi, k, len(got), len(want))
					}
					for i := range want {
						if got[i].ID != want[i].ID || math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
							t.Fatalf("%s dim %d query %d k %d rank %d: got %+v, reference %+v", name, dim, qi, k, i, got[i], want[i])
						}
					}
					buf = got[:0]
				}
			}
		}
	}
}

// TestSelectorBound checks the bound addScored abandons against: +Inf
// until k neighbors are held, then the k-th best, on both the sorted
// buffer and the heap strategies.
func TestSelectorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 5, insertionSelectK + 8} {
		var sel kSelector
		sel.reset(k, nil)
		var seen []Neighbor
		for i := 0; i < 4*k+10; i++ {
			want := math.Inf(1)
			if len(seen) >= k {
				want = sortSelect(seen, k)[k-1].Distance
			}
			if got := sel.bound(); got != want {
				t.Fatalf("k %d after %d adds: bound %v, want %v", k, i, got, want)
			}
			n := Neighbor{ID: ID(i), Distance: float64(rng.Intn(50))}
			sel.add(n)
			seen = append(seen, n)
		}
	}
}
