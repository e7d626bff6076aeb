package feature

import "math"

// Int8 quantization primitives for the approximate-cache candidate
// pipeline. A resident vector is stored once in full float64 precision
// (ground truth for the final re-rank) and once as an int8 code vector
// with a per-vector affine map value ≈ offset + scale·code. Candidate
// scoring then runs on the code vectors — an integer dot kernel over
// one-eighth the memory — and only the surviving top few candidates
// pay the full-precision distance.
//
// All rounding is math.Round (half away from zero), fixed as part of
// the on-disk/in-memory determinism contract: the same vector always
// quantizes to the same codes on every platform.

// QuantRange is the symmetric code range: codes live in
// [-QuantRange, QuantRange]. 127 keeps the map invertible within int8
// without ever producing -128.
const QuantRange = 127

// Quant describes one vector's affine quantization map plus the
// precomputed terms the approximate-distance formula needs.
type Quant struct {
	// Scale and Offset reconstruct values: v[i] ≈ Offset + Scale·code[i].
	Scale  float64
	Offset float64
	// SumQ is Σ codes[i], used to fold the offsets into the integer dot.
	SumQ int32
	// NormSq is the EXACT squared L2 norm of the original float vector
	// (not the reconstruction), so approximate distances stay anchored
	// to true magnitudes.
	NormSq float64
}

// QuantizeInto writes v's int8 codes into dst (which must have len(v))
// and returns the affine map. The map centers the code range on the
// vector's own min/max, so flat vectors quantize to all-zero codes with
// Scale 0.
func QuantizeInto(v Vector, dst []int8) Quant {
	var q Quant
	if len(v) == 0 {
		return q
	}
	min, max := v[0], v[0]
	for _, x := range v[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	q.Offset = (max + min) / 2
	q.Scale = (max - min) / (2 * QuantRange)
	inv := 0.0
	if q.Scale != 0 {
		inv = 1 / q.Scale
	}
	var sum int32
	for i, x := range v {
		c := math.Round((x - q.Offset) * inv)
		if c > QuantRange {
			c = QuantRange
		} else if c < -QuantRange {
			c = -QuantRange
		}
		dst[i] = int8(c)
		sum += int32(dst[i])
	}
	q.SumQ = sum
	var n2 float64
	for _, x := range v {
		n2 += x * x
	}
	q.NormSq = n2
	return q
}

// DequantizeInto reconstructs dst[i] = offset + scale·int8(codes[i])
// from raw two's-complement code bytes, the inverse of QuantizeInto's
// affine map (up to the quantization step). codes must have at least
// len(dst) bytes; taking the wire representation directly avoids an
// []int8 conversion copy on the receive path.
func DequantizeInto(dst Vector, codes []byte, scale, offset float64) {
	codes = codes[:len(dst)]
	for i := range dst {
		dst[i] = offset + scale*float64(int8(codes[i]))
	}
}

// DotInt8 returns the integer inner product Σ a[i]·b[i] of two code
// vectors. Callers guarantee equal lengths (hot path).
func DotInt8(a, b []int8) int32 {
	var sum int32
	b = b[:len(a)]
	for i, x := range a {
		sum += int32(x) * int32(b[i])
	}
	return sum
}

// ApproxSqDistance estimates ‖x−y‖² from two quantized vectors: the
// exact norms, minus twice the reconstructed inner product
//
//	x·y ≈ n·ox·oy + ox·sy·Σqy + oy·sx·Σqx + sx·sy·(qx·qy)
//
// The integer dot is the only per-dimension work. The estimate can be
// slightly negative for near-identical vectors; callers only compare
// estimates, so no clamping is applied.
func ApproxSqDistance(n int, qx, qy Quant, dot int32) float64 {
	xy := float64(n)*qx.Offset*qy.Offset +
		qx.Offset*qy.Scale*float64(qy.SumQ) +
		qy.Offset*qx.Scale*float64(qx.SumQ) +
		qx.Scale*qy.Scale*float64(dot)
	return qx.NormSq + qy.NormSq - 2*xy
}

// MustSqEuclidean is MustEuclidean without the final square root, for
// hot paths that only compare distances (ordering by squared L2 equals
// ordering by L2). Mismatched dimensions return +Inf.
func MustSqEuclidean(a, b Vector) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// SqEuclideanBounded is MustSqEuclidean with early abandon for top-k
// scoring: once the running sum exceeds bound it stops and returns
// that partial sum, which is then also above bound. The squared terms
// are non-negative, so the full sum could only be larger; a candidate
// abandoned here could never beat the bound. When the scan completes,
// the terms were summed in MustSqEuclidean's order, so the result is
// bit-identical to it; with bound = +Inf it always completes.
// Mismatched dimensions return +Inf.
func SqEuclideanBounded(a, b Vector, bound float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var sum float64
	i := 0
	// The bound is checked once per 8 terms (one cache line): a compare
	// per term would cost more than the terms it saves. The block is
	// unrolled by hand; an inner loop measured ~15% slower lookups.
	for ; i+8 <= len(a); i += 8 {
		x, y := a[i:i+8:i+8], b[i:i+8:i+8]
		d := x[0] - y[0]
		sum += d * d
		d = x[1] - y[1]
		sum += d * d
		d = x[2] - y[2]
		sum += d * d
		d = x[3] - y[3]
		sum += d * d
		d = x[4] - y[4]
		sum += d * d
		d = x[5] - y[5]
		sum += d * d
		d = x[6] - y[6]
		sum += d * d
		d = x[7] - y[7]
		sum += d * d
		if sum > bound {
			return sum
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// SqEuclideanBounded4 scores four vectors against q at once. Each
// lane sums its terms in MustSqEuclidean's order, so a completed lane
// is bit-identical to it; the four independent sums overlap in the
// FPU, which a single sum's serial chain of adds cannot. The scan
// stops early only when every lane's partial sum exceeds bound, and
// then all four results are above bound. Lanes whose dimension
// differs from q's are +Inf.
func SqEuclideanBounded4(q, a, b, c, d Vector, bound float64) (sa, sb, sc, sd float64) {
	n := len(q)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		return SqEuclideanBounded(q, a, bound), SqEuclideanBounded(q, b, bound),
			SqEuclideanBounded(q, c, bound), SqEuclideanBounded(q, d, bound)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		x := q[i : i+8 : i+8]
		ya, yb, yc, yd := a[i:i+8:i+8], b[i:i+8:i+8], c[i:i+8:i+8], d[i:i+8:i+8]
		for j := range x {
			v := x[j]
			e := v - ya[j]
			sa += e * e
			e = v - yb[j]
			sb += e * e
			e = v - yc[j]
			sc += e * e
			e = v - yd[j]
			sd += e * e
		}
		if sa > bound && sb > bound && sc > bound && sd > bound {
			return
		}
	}
	for ; i < n; i++ {
		v := q[i]
		e := v - a[i]
		sa += e * e
		e = v - b[i]
		sb += e * e
		e = v - c[i]
		sc += e * e
		e = v - d[i]
		sd += e * e
	}
	return
}
