package feature

import (
	"math"
	"math/rand"
	"testing"
)

// TestSqEuclideanBoundedUnboundedIsExact pins the kernel to
// MustSqEuclidean bit for bit when nothing can be abandoned, across
// dimensions that are and are not multiples of the 8-term block.
func TestSqEuclideanBoundedUnboundedIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf := math.Inf(1)
	for _, dim := range []int{0, 1, 7, 8, 9, 16, 17, 63, 80, 128} {
		for trial := 0; trial < 200; trial++ {
			a, b := make(Vector, dim), make(Vector, dim)
			for i := range a {
				a[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				b[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want := MustSqEuclidean(a, b)
			if got := SqEuclideanBounded(a, b, inf); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: bounded(+Inf) = %v, MustSqEuclidean = %v", dim, got, want)
			}
			if got := SqEuclideanBounded(a, b, math.NaN()); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: bounded(NaN) = %v, MustSqEuclidean = %v", dim, got, want)
			}
		}
	}
	if got := SqEuclideanBounded(Vector{1}, Vector{1, 2}, inf); !math.IsInf(got, 1) {
		t.Fatalf("mismatched dims: got %v, want +Inf", got)
	}
}

// TestSqEuclideanBoundedFiniteBound checks the early-abandon contract
// for finite bounds: the kernel returns MustSqEuclidean's exact value,
// or a value above the bound — and it abandons only candidates whose
// full distance really is above the bound.
func TestSqEuclideanBoundedFiniteBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{1, 8, 13, 80} {
		for trial := 0; trial < 2000; trial++ {
			a, b := make(Vector, dim), make(Vector, dim)
			for i := range a {
				a[i] = rng.Float64()
				b[i] = rng.Float64()
			}
			full := MustSqEuclidean(a, b)
			var bound float64
			switch trial % 4 {
			case 0:
				bound = full // a tie must never be abandoned
			case 1:
				bound = 0
			default:
				bound = full * 2 * rng.Float64()
			}
			got := SqEuclideanBounded(a, b, bound)
			if math.Float64bits(got) == math.Float64bits(full) {
				continue
			}
			if !(got > bound) {
				t.Fatalf("dim %d bound %v: got %v, neither exact (%v) nor above the bound", dim, bound, got, full)
			}
			if !(full > bound) {
				t.Fatalf("dim %d bound %v: abandoned a candidate at %v within the bound", dim, bound, full)
			}
		}
	}
}

// TestSqEuclideanBounded4Lanes checks the four-lane kernel lane by
// lane: with a +Inf bound every lane equals MustSqEuclidean bit for
// bit; with a finite bound either every lane is exact, or every lane
// is above the bound (the group was abandoned) and no lane's full
// distance is within it. Mismatched lanes score +Inf.
func TestSqEuclideanBounded4Lanes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inf := math.Inf(1)
	for _, dim := range []int{0, 1, 7, 8, 9, 17, 80} {
		for trial := 0; trial < 1000; trial++ {
			q := make(Vector, dim)
			for i := range q {
				q[i] = rng.Float64()
			}
			var lanes [4]Vector
			var full [4]float64
			for l := range lanes {
				lanes[l] = make(Vector, dim)
				spread := math.Pow(10, float64(rng.Intn(3)-2))
				for i := range lanes[l] {
					lanes[l][i] = q[i] + rng.NormFloat64()*spread
				}
				full[l] = MustSqEuclidean(q, lanes[l])
			}
			bound := inf
			switch trial % 3 {
			case 1:
				bound = full[rng.Intn(4)] // a tie must never be abandoned
			case 2:
				bound = full[rng.Intn(4)] * rng.Float64()
			}
			var got [4]float64
			got[0], got[1], got[2], got[3] = SqEuclideanBounded4(q, lanes[0], lanes[1], lanes[2], lanes[3], bound)
			exact := true
			for l := range got {
				if math.Float64bits(got[l]) != math.Float64bits(full[l]) {
					exact = false
				}
			}
			if exact {
				continue
			}
			if math.IsInf(bound, 1) {
				t.Fatalf("dim %d: unbounded lanes %v, MustSqEuclidean %v", dim, got, full)
			}
			for l := range got {
				if !(got[l] > bound) || !(full[l] > bound) {
					t.Fatalf("dim %d bound %v: abandoned group with lane %d at %v (full %v)", dim, bound, l, got[l], full[l])
				}
			}
		}
	}
	a, b, c, d := SqEuclideanBounded4(Vector{1, 2}, Vector{1, 2}, Vector{1}, Vector{0, 2}, Vector{1, 2}, inf)
	if a != 0 || !math.IsInf(b, 1) || c != 1 || d != 0 {
		t.Fatalf("mismatched lane: got %v %v %v %v, want 0 +Inf 1 0", a, b, c, d)
	}
}
