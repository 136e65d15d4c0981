// Package linalg implements the dense and sparse float32 kernels used by
// physical stages. Compute-bound operations are written in an explicitly
// bounds-check-eliminated, multi-accumulator style — 4- or 8-wide blocks
// walked by re-slicing (so every index is provably in range) with a
// remainder tail — which is the reproduction of PRETZEL's "vectorizable"
// label on dense compute-bound transformations (§4.1.2,
// OutputGraphValidatorStep): the Go compiler keeps the accumulators in
// registers and the independent lanes expose instruction-level
// parallelism the scalar form hides.
//
// Reduction order note: the blocked forms sum partial accumulators in a
// fixed tree order, so results are deterministic run to run (and
// identical between the batched and per-record engines, which share
// these functions), but may differ from a strict left-to-right sum in
// the last float32 ulps. NaN and Inf propagate: any NaN among the
// touched elements makes a NaN result, exactly as in the naive loop.
package linalg

import "math"

// Dot returns the dense dot product of a and b (length = min(len(a),len(b))).
func Dot(a, b []float32) float32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	for len(a) >= 8 {
		a8, b8 := a[:8], b[:8]
		s0 += a8[0] * b8[0]
		s1 += a8[1] * b8[1]
		s2 += a8[2] * b8[2]
		s3 += a8[3] * b8[3]
		s4 += a8[4] * b8[4]
		s5 += a8[5] * b8[5]
		s6 += a8[6] * b8[6]
		s7 += a8[7] * b8[7]
		a, b = a[8:], b[8:]
	}
	if len(a) >= 4 {
		a4, b4 := a[:4], b[:4]
		s0 += a4[0] * b4[0]
		s1 += a4[1] * b4[1]
		s2 += a4[2] * b4[2]
		s3 += a4[3] * b4[3]
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for i, av := range a {
		s0 += av * b[i]
	}
	return ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
}

// SparseDot returns the dot product between a sparse vector (idx/val) and a
// dense weight vector w. Out-of-range indices are ignored.
func SparseDot(idx []int32, val []float32, w []float32) float32 {
	n := len(idx)
	if len(val) < n {
		n = len(val)
	}
	idx, val = idx[:n], val[:n]
	var s0, s1, s2, s3 float32
	// Four independent gather lanes: the index conversion through uint32
	// makes the negative check and the upper-bound check one comparison,
	// and proves w[j] in range so the gather itself is check-free.
	for len(idx) >= 4 {
		i4, v4 := idx[:4], val[:4]
		j0 := int(uint32(i4[0]))
		j1 := int(uint32(i4[1]))
		j2 := int(uint32(i4[2]))
		j3 := int(uint32(i4[3]))
		if j0 < len(w) {
			s0 += v4[0] * w[j0]
		}
		if j1 < len(w) {
			s1 += v4[1] * w[j1]
		}
		if j2 < len(w) {
			s2 += v4[2] * w[j2]
		}
		if j3 < len(w) {
			s3 += v4[3] * w[j3]
		}
		idx, val = idx[4:], val[4:]
	}
	val = val[:len(idx)]
	for i, ix := range idx {
		if j := int(uint32(ix)); j < len(w) {
			s0 += val[i] * w[j]
		}
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes y += alpha * x elementwise.
func Axpy(alpha float32, x, y []float32) {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	x, y = x[:n], y[:n]
	for len(x) >= 8 {
		x8, y8 := x[:8], y[:8]
		y8[0] += alpha * x8[0]
		y8[1] += alpha * x8[1]
		y8[2] += alpha * x8[2]
		y8[3] += alpha * x8[3]
		y8[4] += alpha * x8[4]
		y8[5] += alpha * x8[5]
		y8[6] += alpha * x8[6]
		y8[7] += alpha * x8[7]
		x, y = x[8:], y[8:]
	}
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// SparseAxpy computes y[idx[i]] += alpha*val[i].
func SparseAxpy(alpha float32, idx []int32, val []float32, y []float32) {
	n := len(idx)
	if len(val) < n {
		n = len(val)
	}
	idx, val = idx[:n], val[:n]
	for i, ix := range idx {
		if j := int(uint32(ix)); j < len(y) {
			y[j] += alpha * val[i]
		}
	}
}

// L2 returns the Euclidean norm of x (accumulated in float64, as before,
// so the blocked form loses no precision over the scalar one).
func L2(x []float32) float32 {
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		x4 := x[:4]
		v0, v1 := float64(x4[0]), float64(x4[1])
		v2, v3 := float64(x4[2]), float64(x4[3])
		s0 += v0 * v0
		s1 += v1 * v1
		s2 += v2 * v2
		s3 += v3 * v3
		x = x[4:]
	}
	for _, v := range x {
		s0 += float64(v) * float64(v)
	}
	return float32(math.Sqrt((s0 + s1) + (s2 + s3)))
}

// SquaredDistance returns ||a-b||^2.
func SquaredDistance(a, b []float32) float32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3 float32
	for len(a) >= 4 {
		a4, b4 := a[:4], b[:4]
		d0 := a4[0] - b4[0]
		d1 := a4[1] - b4[1]
		d2 := a4[2] - b4[2]
		d3 := a4[3] - b4[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		a, b = a[4:], b[4:]
	}
	b = b[:len(a)]
	for i, av := range a {
		d := av - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// Float32 exp: Cephes-style range reduction and minimax polynomial.
// exp(x) = 2^k * exp(r) with r = x - k*ln2 in [-ln2/2, +ln2/2]; exp(r)
// is a degree-5 minimax polynomial accurate to ~2 float32 ulps. The
// two-part ln2 keeps the reduction exact in float32.
const (
	expLog2E  = 1.44269504088896341 // 1/ln2
	expLn2Hi  = 6.93359375e-1       // high bits of ln2, exactly representable
	expLn2Lo  = -2.12194440e-4      // ln2 - expLn2Hi
	expC1     = 1.9875691500e-4
	expC2     = 1.3981999507e-3
	expC3     = 8.3334519073e-3
	expC4     = 4.1665795894e-2
	expC5     = 1.6666665459e-1
	expC6     = 5.0000001201e-1
	expMaxArg = 88.3762626647949 // exp overflows float32 above this
	expMinArg = -87.3365478515625
)

// Exp returns e^x computed entirely in float32: a branch-light,
// polynomial form (no float64 conversion, no table) that the batched
// link loops can keep in registers across lanes. Accuracy is ~2 ulps of
// float32 over the full range; out-of-range arguments clamp to 0 / +Inf
// like math.Exp would after float32 rounding. NaN propagates.
func Exp(x float32) float32 {
	if x != x { // NaN
		return x
	}
	if x > expMaxArg {
		return float32(math.Inf(1))
	}
	if x < expMinArg {
		return 0
	}
	// k = round(x / ln2)
	kf := x*expLog2E + 0.5
	if x < 0 {
		kf = x*expLog2E - 0.5
	}
	k := int32(kf) // truncation of ±0.5-shifted value = round-to-nearest
	fk := float32(k)
	// r = x - k*ln2, in two parts.
	r := x - fk*expLn2Hi
	r -= fk * expLn2Lo
	// exp(r) = 1 + r + r^2 * P(r)
	z := r * r
	p := float32(expC1)
	p = p*r + expC2
	p = p*r + expC3
	p = p*r + expC4
	p = p*r + expC5
	p = p*r + expC6
	er := p*z + r + 1
	// Scale by 2^k through the exponent bits. k is in [-127, 128) after
	// the argument clamp; k = 128 cannot occur (x would exceed expMaxArg)
	// and k = -127 and below are handled by the denormal-free underflow
	// clamp above, so the biased exponent stays in (0, 255).
	return er * math.Float32frombits(uint32(k+127)<<23)
}

// Sigmoid returns 1/(1+exp(-x)) with clamping for numerical stability.
// Computed with the float32 Exp above: no float64 round trip on the
// scoring hot path, identical between the batched and per-record
// engines (both call this function).
func Sigmoid(x float32) float32 {
	if x != x { // NaN propagates
		return x
	}
	if x < -30 {
		return 0
	}
	if x > 30 {
		return 1
	}
	return 1 / (1 + Exp(-x))
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for len(x) >= 4 {
		x4 := x[:4]
		x4[0] *= alpha
		x4[1] *= alpha
		x4[2] *= alpha
		x4[3] *= alpha
		x = x[4:]
	}
	for i := range x {
		x[i] *= alpha
	}
}

// Softmax writes softmax(x) into out (same length) and returns out.
// The max scan and the final normalization are blocked; the exponential
// itself stays the float64 math.Exp of the original (softmax feeds
// ensemble aggregation, where the extra precision is worth one scalar
// call per class).
func Softmax(x, out []float32) []float32 {
	if len(x) == 0 {
		return out[:0]
	}
	max := x[0]
	y := x
	for len(y) >= 4 {
		y4 := y[:4]
		m01, m23 := y4[0], y4[2]
		if y4[1] > m01 {
			m01 = y4[1]
		}
		if y4[3] > m23 {
			m23 = y4[3]
		}
		if m01 > max {
			max = m01
		}
		if m23 > max {
			max = m23
		}
		y = y[4:]
	}
	for _, v := range y {
		if v > max {
			max = v
		}
	}
	var sum float64
	out = out[:len(x)]
	for i, v := range x {
		e := math.Exp(float64(v - max))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	Scale(inv, out)
	return out
}
